package phys

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

// rmapBytes is the reverse map's heap footprint: the per-block arrays, the
// free list and every leaf carved so far (in use, free or still in the
// current slab).
func rmapBytes(m *Memory) uint64 {
	inUse := 0
	for _, l := range m.leaves {
		if l != nil {
			inUse++
		}
	}
	carved := uint64(inUse + len(m.leafFree) + len(m.slab))
	return uint64(8*cap(m.heads)+8*cap(m.leaves)+2*cap(m.live)+8*cap(m.leafFree)) + carved*8*blockFrames
}

// TestReverseMapFootprint pins the reverse map's memory cost: huge pages
// materialize no leaf, 4KB heads cost 8 bytes each beyond the 18 bytes per
// 2MB block that Boot sizes, and churn after warm-up allocates nothing.
func TestReverseMapFootprint(t *testing.T) {
	const gb = 4
	m := newTestMem(t, gb)
	blocks := m.Frames() / blockFrames
	m.MarkAllocated(0, m.Frames(), false)
	base := rmapBytes(m)
	// 18 bytes per block, plus the allocator's size-class rounding.
	if max := 20 * blocks; base > max {
		t.Fatalf("booted reverse map = %d bytes, want at most %d", base, max)
	}

	huge := func() {
		for pfn := uint64(0); pfn < 2*units.FramesPerRegion; pfn += blockFrames {
			m.SetOwner(pfn, Owner{Space: 1, VA: pfn * units.Page4K, Size: units.Size2M})
		}
		for pfn := uint64(2 * units.FramesPerRegion); pfn < m.Frames(); pfn += units.FramesPerRegion {
			m.SetOwner(pfn, Owner{Space: 2, VA: pfn * units.Page4K, Size: units.Size1G})
		}
	}
	huge()
	if got := rmapBytes(m); got != base {
		t.Errorf("2MB and 1GB owners grew the reverse map to %d bytes, want %d", got, base)
	}
	if l := slices.IndexFunc(m.leaves, func(l *[blockFrames]uint64) bool { return l != nil }); l >= 0 {
		t.Errorf("a huge-page population materialized block %d's leaf", l)
	}
	m.MarkFree(0, m.Frames())
	m.MarkAllocated(0, m.Frames(), false)
	if n := testing.AllocsPerRun(3, func() {
		huge()
		m.MarkFree(0, m.Frames())
		m.MarkAllocated(0, m.Frames(), false)
	}); n != 0 {
		t.Errorf("huge-page map and free allocates %v objects per cycle, want 0", n)
	}

	// 4KB heads filling 64 blocks: 8 bytes each, no more.
	const dense = 64 * blockFrames
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.SetOwners4K(0, dense/2, Owner{Space: 3, Size: units.Size4K})
	for pfn := uint64(dense / 2); pfn < dense; pfn++ {
		m.SetOwner(pfn, Owner{Space: 4, VA: pfn * units.Page4K, Size: units.Size4K})
	}
	runtime.ReadMemStats(&after)
	if got, want := rmapBytes(m), base+8*dense; got > want {
		t.Errorf("%d 4KB heads: reverse map = %d bytes, want at most %d", dense, got, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*dense+4096 {
		t.Errorf("%d 4KB heads allocated %d bytes, want at most %d", dense, got, 8*dense+4096)
	}

	if n := testing.AllocsPerRun(3, func() {
		m.MarkFree(0, dense)
		m.MarkAllocated(0, dense, false)
		m.SetOwners4K(0, dense/2, Owner{Space: 3, Size: units.Size4K})
		for pfn := uint64(dense / 2); pfn < dense; pfn++ {
			m.SetOwner(pfn, Owner{Space: 4, VA: pfn * units.Page4K, Size: units.Size4K})
		}
	}); n != 0 {
		t.Errorf("4KB free-then-remap allocates %v objects per cycle, want 0", n)
	}
}

// TestPackRejectsOverflow: an owner that does not fit its word panics
// instead of aliasing another.
func TestPackRejectsOverflow(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, blockFrames, false)
	for _, o := range []Owner{
		{Space: maxSpace + 1, Size: units.Size4K},
		{Space: 1, VA: 1 << 47, Size: units.Size4K},
		{Space: 1, VA: 0x1234, Size: units.Size4K},
		{Space: 1, Size: units.NumPageSizes},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOwner(%+v) did not panic", o)
				}
			}()
			m.SetOwner(0, o)
		}()
	}
	if _, _, ok := m.OwnerOf(0); ok {
		t.Error("a rejected owner was registered")
	}
}

// FuzzReverseMap runs random sequences of reverse-map and frame operations
// at every page size — SetOwner, SetOwners4K, ClearOwner(s), MoveOwners,
// MarkFree/MarkAllocated and Reset+Boot at another size — against a
// map[pfn]Owner model, checking OwnerOf, ForEachOwner's order and contents
// and Run4K after every step. Operations the model says must panic are
// checked to panic; after one that may have changed state before
// panicking (SetOwners4K, MoveOwners) the sequence ends.
func FuzzReverseMap(f *testing.F) {
	f.Add(uint64(1), uint16(200))
	f.Add(uint64(2), uint16(600))
	f.Add(uint64(3), uint16(50))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		checkReverseMap(t, seed, int(steps%1024))
	})
}

// TestReverseMapModel runs the fuzzer's check on a few seeds.
func TestReverseMapModel(t *testing.T) {
	for seed := uint64(10); seed < 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkReverseMap(t, seed, 400) })
	}
}

func checkReverseMap(t *testing.T, seed uint64, steps int) {
	rng := xrand.New(seed)
	m := NewMemory(units.Page1G * (1 + rng.Uint64n(2)))
	m.MarkAllocated(0, m.Frames(), false)
	model := map[uint64]Owner{}

	// pfn draws cluster on a few blocks of each region, so operations
	// collide, cross block edges and straddle the 1GB boundaries.
	pfnAt := func(size units.PageSize) uint64 {
		r := rng.Uint64n(m.NumRegions())
		b := []uint64{0, 1, 2, 255, 511}[rng.Intn(5)]
		off := []uint64{0, 1, 2, 510, 511, rng.Uint64n(blockFrames)}[rng.Intn(6)]
		pfn := r*units.FramesPerRegion + b*blockFrames + off
		return pfn &^ (size.Frames() - 1)
	}
	sizeAt := func() units.PageSize {
		return []units.PageSize{units.Size4K, units.Size4K, units.Size4K, units.Size2M, units.Size1G}[rng.Intn(5)]
	}
	ownerAt := func(pfn uint64, size units.PageSize) Owner {
		va := (pfn + []uint64{0, 0, 1, 512}[rng.Intn(4)]) * units.Page4K
		return Owner{Space: uint32(1 + rng.Intn(3)), VA: va &^ (size.Bytes() - 1), Size: size}
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	ownedKeys := func() []uint64 {
		keys := make([]uint64, 0, len(model))
		for pfn := range model {
			keys = append(keys, pfn)
		}
		slices.Sort(keys)
		return keys
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(16); {
		case op < 5: // SetOwner
			size := sizeAt()
			pfn := pfnAt(size)
			o := ownerAt(pfn, size)
			_, owned := model[pfn]
			if owned || !m.IsAllocated(pfn) {
				mustPanic(fmt.Sprintf("SetOwner(%d, %+v)", pfn, o), func() { m.SetOwner(pfn, o) })
				continue
			}
			m.SetOwner(pfn, o)
			model[pfn] = o
		case op < 8: // SetOwners4K
			pfn := pfnAt(units.Size4K)
			n := min(1+rng.Uint64n(700), m.Frames()-pfn)
			o := ownerAt(pfn, units.Size4K)
			free := uint64(0) // frames SetOwners4K may claim from pfn on
			for free < n {
				if _, owned := model[pfn+free]; owned || !m.IsAllocated(pfn+free) {
					break
				}
				free++
			}
			if free > 0 || rng.Bool(0.9) {
				n = free
			}
			if n == 0 {
				continue
			}
			if free < n {
				mustPanic(fmt.Sprintf("SetOwners4K(%d, %d)", pfn, n), func() { m.SetOwners4K(pfn, n, o) })
				return
			}
			m.SetOwners4K(pfn, n, o)
			for j := range n {
				model[pfn+j] = Owner{Space: o.Space, VA: o.VA + j*units.Page4K, Size: units.Size4K}
			}
		case op < 10: // ClearOwner, ClearOwners
			keys := ownedKeys()
			if len(keys) == 0 || rng.Bool(0.2) {
				pfn := pfnAt(units.Size4K)
				if _, owned := model[pfn]; !owned {
					mustPanic(fmt.Sprintf("ClearOwner(%d)", pfn), func() { m.ClearOwner(pfn) })
				}
				continue
			}
			i := rng.Intn(len(keys))
			batch := keys[i : i+1+rng.Intn(min(len(keys)-i, 40))]
			m.ClearOwners(batch)
			for _, pfn := range batch {
				delete(model, pfn)
			}
		case op < 12: // MoveOwners
			keys := ownedKeys()
			if len(keys) == 0 {
				continue
			}
			i := rng.Intn(len(keys))
			from := keys[i : i+1+rng.Intn(min(len(keys)-i, 8))]
			// Destinations are drawn until one is free to claim at its
			// turn; a move whose draws all miss is skipped or must panic.
			after := maps.Clone(model)
			to := make([]uint64, len(from))
			ok := true
			for j, pfn := range from {
				o := after[pfn]
				delete(after, pfn)
				for try := 0; try < 8; try++ {
					to[j] = pfnAt(o.Size)
					_, owned := after[to[j]]
					if ok = !owned && m.IsAllocated(to[j]); ok {
						break
					}
				}
				if !ok {
					break
				}
				after[to[j]] = o
			}
			if !ok && rng.Bool(0.8) {
				continue
			}
			if !ok {
				mustPanic(fmt.Sprintf("MoveOwners(%v, %v)", from, to), func() { m.MoveOwners(from, to) })
				return
			}
			model = after
			m.MoveOwners(from, to)
		case op < 15: // MarkFree or MarkAllocated of a range
			pfn := pfnAt(units.Size4K)
			n := min([]uint64{1, 3, blockFrames, 1 + rng.Uint64n(1100)}[rng.Intn(4)], m.Frames()-pfn)
			switch m.AllocatedInRange(pfn, n) {
			case n:
				m.MarkFree(pfn, n)
				for f := pfn; f < pfn+n; f++ {
					delete(model, f)
				}
			case 0:
				m.MarkAllocated(pfn, n, rng.Bool(0.3))
			}
		default: // Reset and Boot at another size
			m.Reset()
			m.Boot(units.Page1G * (1 + rng.Uint64n(3)))
			m.MarkAllocated(0, m.Frames(), rng.Bool(0.1))
			clear(model)
		}
		checkAgainstModel(t, m, model, pfnAt(units.Size4K), rng.Uint64n(1100))
	}
}

// checkAgainstModel compares the reverse map with the model: every owner
// in ascending order, OwnerOf around probe, and Run4K from probe up to
// probe+span.
func checkAgainstModel(t *testing.T, m *Memory, model map[uint64]Owner, probe, span uint64) {
	t.Helper()
	type head struct {
		pfn uint64
		o   Owner
	}
	var got []head
	m.ForEachOwner(func(pfn uint64, o Owner) bool {
		got = append(got, head{pfn, o})
		return true
	})
	want := make([]head, 0, len(model))
	for pfn, o := range model {
		want = append(want, head{pfn, o})
	}
	slices.SortFunc(want, func(a, b head) int { return cmp.Compare(a.pfn, b.pfn) })
	if !slices.Equal(got, want) {
		t.Fatalf("ForEachOwner = %v\nmodel       = %v", got, want)
	}

	for _, pfn := range []uint64{probe, probe + 1, probe | (blockFrames - 1), probe &^ (blockFrames - 1)} {
		if pfn >= m.Frames() {
			continue
		}
		o, h, ok := m.OwnerOf(pfn)
		wo, wh, wok := modelOwnerOf(model, pfn)
		if o != wo || h != wh || ok != wok {
			t.Fatalf("OwnerOf(%d) = %+v, %d, %v; model %+v, %d, %v", pfn, o, h, ok, wo, wh, wok)
		}
	}

	hi := min(probe+span, m.Frames())
	var n uint64
	if first, ok := model[probe]; ok && first.Size == units.Size4K {
		for f := probe; f < hi && !m.IsUnmovable(f); f++ {
			if model[f] != (Owner{Space: first.Space, VA: first.VA + n*units.Page4K, Size: units.Size4K}) {
				break
			}
			n++
		}
	}
	if got := m.Run4K(probe, hi); got != n {
		t.Fatalf("Run4K(%d, %d) = %d, model %d", probe, hi, got, n)
	}
}

// modelOwnerOf is OwnerOf over the model: an owner headed at pfn, else a
// 2MB owner at its 2MB head, else a 1GB owner at its 1GB head.
func modelOwnerOf(model map[uint64]Owner, pfn uint64) (Owner, uint64, bool) {
	if o, ok := model[pfn]; ok {
		return o, pfn, true
	}
	for _, size := range []units.PageSize{units.Size2M, units.Size1G} {
		head := pfn &^ (size.Frames() - 1)
		if o, ok := model[head]; ok && o.Size == size {
			return o, head, true
		}
	}
	return Owner{}, 0, false
}
