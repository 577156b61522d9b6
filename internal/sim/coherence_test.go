package sim

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/units"
	"repro/internal/vmm"
)

// TestShadowCoherencePrimitives drives every remapping primitive the kernel
// offers — promotion (small→huge remap), compaction (MovePage), pv-style
// ExchangeFrames, demotion and unmap — against an MMU in ShadowCheck mode.
// Each translation after a remap cross-checks the TLB fast path against the
// page table, so a single stale entry surviving any primitive panics the
// test. This is the direct proof of the fast-path contract (DESIGN.md §5a):
// every primitive that removes or repoints a mapping shoots the page down,
// making TLB entries authoritative between flushes.
func TestShadowCoherencePrimitives(t *testing.T) {
	k := kernel.New(8*units.Page1G, units.TridentMaxOrder)
	m := mmu.New(*tinyTLB())
	m.ShadowCheck = true
	task := k.NewTask("app")
	k.Shootdown = func(tk *kernel.Task, va, n uint64, size units.PageSize) {
		if tk == task {
			m.FlushRange(va, n, size)
		}
	}

	va, err := task.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	pt := task.AS.PT

	// touch translates a spread of addresses across the GB region twice, so
	// the second pass is all TLB hits — each one shadow-checked.
	touch := func(stage string) {
		for pass := 0; pass < 2; pass++ {
			for off := uint64(0); off < units.Page1G; off += 37 * units.Page2M / 5 {
				if !m.Translate(pt, nil, va+off, pass == 1) {
					t.Fatalf("%s: unexpected fault at %#x", stage, va+off)
				}
			}
		}
	}

	// Populate with 512 2MB pages and warm the TLB.
	for i := uint64(0); i < 512; i++ {
		if _, err := k.AllocMapped(task, va+i*units.Page2M, units.Size2M); err != nil {
			t.Fatal(err)
		}
	}
	touch("2MB baseline")

	// Promotion: tear down the 2MB mappings (frames freed) and install one
	// 1GB page, exactly as the promotion daemon remaps. The warm 2MB entries
	// must all have been shot down.
	huge, err := k.Buddy.Alloc(units.Size1G.Order(), false)
	if err != nil {
		t.Fatal(err)
	}
	k.UnmapRangeKeep(task, va, va+units.Page1G, func(r pagetable.Run) {
		for _, pfn := range r.PFNs {
			k.Buddy.Free(pfn, r.Size.Order())
		}
	})
	if err := k.MapSpecific(task, va, huge, units.Size1G); err != nil {
		t.Fatal(err)
	}
	touch("after promotion")

	// Compaction: repoint the 1GB mapping to fresh frames.
	moved, err := k.Buddy.Alloc(units.Size1G.Order(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MovePage(task, va, units.Size1G, huge, moved); err != nil {
		t.Fatal(err)
	}
	k.Buddy.Free(huge, units.Size1G.Order())
	touch("after MovePage")

	// Demotion back to 2MB pieces (bloat recovery), then a pv-style frame
	// exchange between two of the pieces.
	if err := k.DemotePage(task, va); err != nil {
		t.Fatal(err)
	}
	touch("after demotion")
	if err := k.ExchangeFrames(task, va, task, va+units.Page2M, units.Size2M); err != nil {
		t.Fatal(err)
	}
	touch("after ExchangeFrames")

	// Unmap one piece: the next reference must fault (a hit here would mean
	// a stale entry outlived UnmapFree; ShadowCheck would panic on it).
	if err := k.UnmapFree(task, va, units.Size2M); err != nil {
		t.Fatal(err)
	}
	if m.Translate(pt, nil, va, false) {
		t.Fatal("translation succeeded on an unmapped page")
	}
	if m.Faults != 1 {
		t.Fatalf("got %d faults, want 1", m.Faults)
	}

	// Run teardown (munmap): demote a remaining 2MB piece to 4KB pages,
	// warm them, and tear the whole 1GB region down in runs. Every
	// reference must fault afterwards.
	piece := va + 5*units.Page2M
	if err := k.DemotePage(task, piece); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for p := piece; p < piece+units.Page2M; p += units.Page4K {
			if !m.Translate(pt, nil, p, false) {
				t.Fatalf("after 4KB demotion: unexpected fault at %#x", p)
			}
		}
	}
	if err := k.UnmapRange(task, va, va+units.Page1G); err != nil {
		t.Fatal(err)
	}
	for p := piece; p < piece+units.Page2M; p += 37 * units.Page4K {
		if m.Translate(pt, nil, p, false) {
			t.Fatalf("translation of %#x succeeded after UnmapRange", p)
		}
	}

	if m.Totals().Walks == 0 || m.Totals().Accesses == 0 {
		t.Fatal("test exercised neither walks nor hits; TLB geometry too large?")
	}
}

// TestShadowCoherenceFullRuns replays full simulations with ShadowCheck on,
// across the configurations whose daemons remap most aggressively: Trident
// and Trident-NC on fragmented memory (promotion + smart/normal compaction),
// HawkEye (promotion + demotion-based bloat recovery), and the virtualized
// Trident_pv run (hypercall frame exchange under a fragmented guest). Any
// stale TLB entry anywhere in these runs panics inside mmu.Translate.
func TestShadowCoherenceFullRuns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"trident-fragmented", func(c *Config) {
			c.Policy = PolicyTrident
			c.Fragment = true
		}},
		{"trident-nc-fragmented", func(c *Config) {
			c.Policy = PolicyTridentNC
			c.Fragment = true
		}},
		{"hawkeye-fragmented", func(c *Config) {
			c.Policy = PolicyHawkEye
			c.Fragment = true
		}},
		{"trident-pv-virtualized", func(c *Config) {
			c.Policy = PolicyTrident
			c.Virtualized = true
			c.HostPolicy = PolicyTrident
			c.Fragment = true
			c.KhugepagedBudgetFrac = 0.10
			c.Pv = true
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig("GUPS", PolicyTrident)
			cfg.Accesses = 60_000
			cfg.ShadowCheck = true
			tc.mut(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trans.Accesses == 0 {
				t.Error("no accesses measured")
			}
		})
	}
}
