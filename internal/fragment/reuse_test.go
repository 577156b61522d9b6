package fragment

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
)

// reapplyDraw is one chain of applications: a Fragmenter and a kernel
// first used at one size, flavour and config, then reset, re-booted and
// applied at another, as the machine pool (internal/sim) reuses both.
type reapplyDraw struct {
	prevGB, gb           uint8 // machine sizes, %6+1 GB
	prevTrident, trident bool
	prevSeed, seed       uint64
	prevFreeMiB, freeMiB uint16
}

func (d reapplyDraw) machine(gb uint8, trident bool) (uint64, int) {
	if trident {
		return (uint64(gb%6) + 1) * units.Page1G, units.TridentMaxOrder
	}
	return (uint64(gb%6) + 1) * units.Page1G, units.StockMaxOrder
}

func (d reapplyDraw) config(seed uint64, freeMiB uint16, memBytes uint64) Config {
	return Config{
		Seed:           seed,
		UnmovableBytes: memBytes / 128,
		FreeBytes:      uint64(freeMiB) * units.MiB % (memBytes + units.Page1G),
	}
}

// checkReapply applies a used Fragmenter on a used kernel and a new
// Fragmenter on a new kernel, and requires the same error, machine state
// and Fragmenter. The first application may fail: a Fragmenter left
// partly applied must still apply cleanly.
func checkReapply(t *testing.T, d reapplyDraw) {
	t.Helper()
	prevMem, prevOrder := d.machine(d.prevGB, d.prevTrident)
	memBytes, maxOrder := d.machine(d.gb, d.trident)
	cfg := d.config(d.seed, d.freeMiB, memBytes)

	k := kernel.New(prevMem, prevOrder)
	f := new(Fragmenter)
	_ = f.Apply(k, d.config(d.prevSeed, d.prevFreeMiB, prevMem)) // an error is fine: only reuse matters
	k.Reset()
	k.Boot(memBytes, maxOrder)
	err := f.Apply(k, cfg)

	fresh := kernel.New(memBytes, maxOrder)
	ff, errFresh := Apply(fresh, cfg)
	if fmt.Sprint(err) != fmt.Sprint(errFresh) {
		t.Fatalf("reapplied error %v, fresh error %v", err, errFresh)
	}
	requireSameState(t, "reapplied", stateOf(t, k, f.Cache), stateOf(t, fresh, fresh.Tasks()[0]))
	if err != nil {
		return
	}
	if k.Ops != fresh.Ops {
		t.Fatalf("ops %+v, fresh %+v", k.Ops, fresh.Ops)
	}
	requireSameFragmenter(t, "reapplied", f, ff)
	more := cfg.FreeBytes/2 + units.MiB
	if g, w := f.ReclaimRandom(more), ff.ReclaimRandom(more); g != w {
		t.Fatalf("ReclaimRandom freed %d bytes, fresh %d", g, w)
	}
	requireSameState(t, "after ReclaimRandom", stateOf(t, k, f.Cache), stateOf(t, fresh, ff.Cache))
	requireSameFragmenter(t, "after ReclaimRandom", f, ff)
}

// FuzzReapplyEquivalence checks Fragmenter reuse: a Fragmenter applied
// again, on a kernel Reset and re-booted at another size or flavour, is
// exactly a new Fragmenter applied to a new kernel — the same machine,
// held lists, weights and rng position, and the same reclaim afterwards.
func FuzzReapplyEquivalence(f *testing.F) {
	for _, d := range reapplyDraws {
		f.Add(d.prevGB, d.gb, d.prevTrident, d.trident, d.prevSeed, d.seed, d.prevFreeMiB, d.freeMiB)
	}
	f.Fuzz(func(t *testing.T, prevGB, gb uint8, prevTrident, trident bool, prevSeed, seed uint64, prevFreeMiB, freeMiB uint16) {
		checkReapply(t, reapplyDraw{prevGB, gb, prevTrident, trident, prevSeed, seed, prevFreeMiB, freeMiB})
	})
}

// reapplyDraws are the reuse chains TestReappliedFragmenterMatchesFresh
// pins: the same size and flavour again (a held list must not keep its
// old contents), grown, shrunk, re-flavoured, and after a failed Apply.
var reapplyDraws = []reapplyDraw{
	{prevGB: 1, gb: 1, prevTrident: true, trident: true, prevSeed: 1, seed: 2, prevFreeMiB: 900, freeMiB: 700},
	{prevGB: 0, gb: 3, prevTrident: false, trident: false, prevSeed: 3, seed: 4, prevFreeMiB: 300, freeMiB: 2000},
	{prevGB: 5, gb: 1, prevTrident: true, trident: false, prevSeed: 5, seed: 6, prevFreeMiB: 4000, freeMiB: 1500},
	{prevGB: 2, gb: 2, prevTrident: false, trident: true, prevSeed: 7, seed: 8, prevFreeMiB: 100, freeMiB: 1024},
	{prevGB: 0, gb: 0, prevTrident: false, trident: false, prevSeed: 9, seed: 10, prevFreeMiB: 1020, freeMiB: 600}, // first Apply falls short
}

func TestReappliedFragmenterMatchesFresh(t *testing.T) {
	for i, d := range reapplyDraws {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkReapply(t, d) })
	}
}

// TestReapplyAllocs pins a reused Fragmenter's heap use: applied again at
// the same size, Apply allocates one object, the page-cache file's
// kernel.Task that NewFile creates, at every memory size. Its buffers (held lists,
// chunk heads, bitmaps, weights) and the kernel's arenas are all reused.
func TestReapplyAllocs(t *testing.T) {
	for _, gb := range []uint64{1, 2, 4} {
		k := kernel.New(gb*units.Page1G, units.StockMaxOrder)
		f := new(Fragmenter)
		cfg := Config{Seed: 3, UnmovableBytes: gb * units.Page1G / 128, FreeBytes: gb * units.Page1G / 2}
		cycle := func() {
			k.Reset()
			if err := f.Apply(k, cfg); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(5, cycle); allocs != 1 {
			t.Errorf("%d GB: a reused Apply allocates %v objects, want 1 (the cache file's task)", gb, allocs)
		}
	}
}
