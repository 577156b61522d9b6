package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/units"
)

// TestMapRunMatchesMapSpecific checks MapRun against its definition, a
// MapSpecific loop that stops at the first error: same error, page-table
// entries, mapped counters, reverse map and op counts, and the same
// answers from Lookup and Translate afterwards, which start from the walk
// cache each side left behind; and once the run is unmapped again, the
// same leaf tables reclaimed.
func TestMapRunMatchesMapSpecific(t *testing.T) {
	const page = units.Page4K
	cases := []struct {
		name string
		va   uint64
		n    uint64
		pre  []pagetable.Mapping // mapped before the run (PFN ignored)
	}{
		{name: "inside one leaf table", va: units.Page1G + 5*page, n: 100},
		{name: "crosses leaf tables", va: 3*units.Page2M - 10*page, n: 1100},
		{name: "crosses a 1GB PD", va: 2*units.Page1G - 300*page, n: 700},
		{name: "crosses a 512GB PDPT", va: 512*units.Page1G - 3*page, n: 6},
		{name: "joins a populated leaf table", va: 7 * page, n: 40,
			pre: []pagetable.Mapping{{VA: 2 * page, Size: units.Size4K}, {VA: 600 * page, Size: units.Size4K}}},
		{name: "4KB overlap mid-run", va: units.Page2M - 20*page, n: 100,
			pre: []pagetable.Mapping{{VA: units.Page2M + 30*page, Size: units.Size4K}}},
		{name: "2MB overlap mid-run", va: 5*units.Page2M - 20*page, n: 100,
			pre: []pagetable.Mapping{{VA: 5 * units.Page2M, Size: units.Size2M}}},
		{name: "1GB overlap mid-run", va: units.Page1G - 2*page, n: 10,
			pre: []pagetable.Mapping{{VA: units.Page1G, Size: units.Size1G}}},
		{name: "overlap at the first page", va: 9 * page, n: 10,
			pre: []pagetable.Mapping{{VA: 9 * page, Size: units.Size4K}}},
		{name: "runs into MaxVA", va: pagetable.MaxVA - 3*page, n: 6},
		{name: "misaligned", va: units.Page1G + 1, n: 4},
		{name: "empty", va: units.Page1G, n: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkMapRun(t, c.va, c.n, c.pre) })
	}
}

// FuzzMapRunEquivalence is TestMapRunMatchesMapSpecific over drawn runs: up
// to 2048 pages anywhere in the first 16TB of VA, optionally meeting one
// earlier mapping of any size placed near the run.
func FuzzMapRunEquivalence(f *testing.F) {
	f.Add(uint32(511), uint16(3), int16(0), uint8(0))
	f.Add(uint32(262140), uint16(1030), int16(600), uint8(1))
	f.Add(uint32(1000), uint16(200), int16(100), uint8(2))
	f.Add(uint32(3*262144-1), uint16(2048), int16(1), uint8(3))
	f.Add(uint32(134217727), uint16(9), int16(-2), uint8(1))
	f.Fuzz(func(t *testing.T, vaPage uint32, n uint16, preOff int16, preSize uint8) {
		va := uint64(vaPage) * units.Page4K
		var pre []pagetable.Mapping
		if preSize%4 != 0 {
			size := units.PageSize(preSize%4 - 1)
			if at := int64(va) + int64(preOff)*units.Page4K; at >= 0 {
				pre = append(pre, pagetable.Mapping{VA: units.Align(uint64(at), size.Bytes()), Size: size})
			}
		}
		checkMapRun(t, va, uint64(n%2049), pre)
	})
}

// checkMapRun maps n pages at va (after the pre mappings, whose PFN is
// ignored) with MapRun on one kernel and a MapSpecific loop on another and
// requires the two machines to agree.
func checkMapRun(t *testing.T, va, n uint64, pre []pagetable.Mapping) {
	t.Helper()
	const page = units.Page4K
	const pfn = uint64(3 * units.FramesPerRegion) // the run's frames: region 3
	var ks [2]*Kernel
	var ts [2]*Task
	var errs [2]error
	var mapped [2]uint64
	for side := range ks {
		k := newKernel(t, 4)
		task := k.NewTask("p")
		for f := pfn; f < pfn+n; f++ {
			if err := k.Buddy.AllocSpecific(f, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range pre {
			if _, err := k.AllocMapped(task, m.VA, m.Size); err != nil {
				t.Fatal(err)
			}
		}
		if side == 0 {
			mapped[side], errs[side] = k.MapRun(task, va, pfn, n)
		} else {
			for j := uint64(0); j < n; j++ {
				if err := k.MapSpecific(task, va+j*page, pfn+j, units.Size4K); err != nil {
					errs[side] = err
					break
				}
				mapped[side]++
			}
		}
		ks[side], ts[side] = k, task
	}
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || mapped[0] != mapped[1] {
		t.Fatalf("MapRun mapped %d, error %v; MapSpecific loop mapped %d, error %v", mapped[0], errs[0], mapped[1], errs[1])
	}
	requireSameMappings(t, ts[0], ts[1])
	if ks[0].Ops != ks[1].Ops {
		t.Fatalf("ops %+v, want %+v", ks[0].Ops, ks[1].Ops)
	}
	owners := func(k *Kernel) (out []string) {
		k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
			out = append(out, fmt.Sprint(pfn, o))
			return true
		})
		return out
	}
	if got, want := owners(ks[0]), owners(ks[1]); !slices.Equal(got, want) {
		t.Fatalf("reverse maps differ: %d vs %d owners", len(got), len(want))
	}
	// Probe from each side's walk cache: the last page the run could have
	// mapped (the cached leaf), then the first (a stale cached PD would
	// answer it from the wrong 1GB window), then the rest.
	last := va + n*page
	probes := []uint64{last - page, va, last, va - page}
	for j := uint64(0); j < n; j += 37 {
		probes = append(probes, va+j*page)
	}
	for _, m := range pre {
		probes = append(probes, m.VA)
	}
	for i, p := range probes {
		m0, ok0 := ts[0].AS.PT.Lookup(p)
		m1, ok1 := ts[1].AS.PT.Lookup(p)
		if m0 != m1 || ok0 != ok1 {
			t.Fatalf("Lookup(%#x) = %+v %v, want %+v %v", p, m0, ok0, m1, ok1)
		}
		pa0, m0, ok0 := ts[0].AS.PT.Translate(p, i%2 == 0)
		pa1, m1, ok1 := ts[1].AS.PT.Translate(p, i%2 == 0)
		if pa0 != pa1 || m0 != m1 || ok0 != ok1 {
			t.Fatalf("Translate(%#x) = %#x %+v %v, want %#x %+v %v", p, pa0, m0, ok0, pa1, m1, ok1)
		}
	}
	requireSameMappings(t, ts[0], ts[1])

	// Unmapping the run must reclaim the same leaf tables: a table left
	// behind makes a 2MB mapping over its window overlap.
	for side, k := range ks {
		k.UnmapRangeKeep(ts[side], va, last, func(pagetable.Mapping) {})
	}
	requireSameMappings(t, ts[0], ts[1])
	for w := units.Align(va, units.Page2M); w < last && w < pagetable.MaxVA; w += units.Page2M {
		if o0, o1 := ts[0].AS.PT.Overlaps(w, units.Size2M), ts[1].AS.PT.Overlaps(w, units.Size2M); o0 != o1 {
			t.Fatalf("after unmapping the run, Overlaps(%#x, 2MB) = %v, want %v", w, o0, o1)
		}
	}
}

func requireSameMappings(t *testing.T, got, want *Task) {
	t.Helper()
	all := func(task *Task) (out []pagetable.Mapping) {
		task.AS.PT.ForEach(0, pagetable.MaxVA, func(m pagetable.Mapping) bool {
			out = append(out, m)
			return true
		})
		return out
	}
	if g, w := all(got), all(want); !slices.Equal(g, w) {
		t.Fatalf("page tables differ: %d vs %d mappings", len(g), len(w))
	}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		if got.AS.PT.MappedBytes(s) != want.AS.PT.MappedBytes(s) || got.AS.PT.MappedPages(s) != want.AS.PT.MappedPages(s) {
			t.Fatalf("%v: mapped %d bytes in %d pages, want %d in %d", s,
				got.AS.PT.MappedBytes(s), got.AS.PT.MappedPages(s), want.AS.PT.MappedBytes(s), want.AS.PT.MappedPages(s))
		}
	}
}
