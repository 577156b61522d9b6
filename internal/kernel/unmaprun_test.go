package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/units"
)

// unmapWindow is the VA window the equivalence tests lay mappings out in:
// two 1GB-aligned gigabytes, so every page size fits.
const (
	unmapWindowLo = units.Page1G
	unmapWindowHi = 3 * units.Page1G
)

// FuzzUnmapRangeEquivalence checks run teardown against its per-page
// definition. On one kernel, UnmapRange (keep false) or UnmapRangeKeep
// (keep true) tears down [lo, hi); on an identical second kernel the
// per-page reference does — unmapRangePerPage, or UnmapKeep on each
// mapping wholly inside the range. The two machines must agree on the
// page table, the reverse map, the op counts, the buddy free lists and
// counts, the region counters, the leaf tables reclaimed, the expanded
// (page, size) sequence of shootdowns and, under keep, the frames handed
// to the callback.
//
// layout draws the mappings, one byte each, from a cursor moving up the
// window (see layOut); lo and hi are page offsets into the window.
func FuzzUnmapRangeEquivalence(f *testing.F) {
	f.Add([]byte{0x41, 0xfd, 0x02, 0x09, 0x81}, uint32(3), uint32(700), false)
	f.Add([]byte{0x02, 0x02, 0x11, 0x07, 0xff, 0x03}, uint32(0), uint32(262144), true)
	f.Add([]byte{0x03, 0x06, 0x0b, 0xfd, 0x21, 0x01, 0x02}, uint32(1000), uint32(262144), false)
	f.Add([]byte{0xfd, 0x0f, 0x07, 0x0f, 0x07, 0xfd, 0x81, 0x02, 0x0a}, uint32(17), uint32(1500), true)
	f.Add([]byte{0x03, 0x0a, 0x0e}, uint32(262143), uint32(262146), false)
	f.Fuzz(func(t *testing.T, layout []byte, loPage, nPages uint32, keep bool) {
		const pages = (unmapWindowHi - unmapWindowLo) / units.Page4K
		lo := unmapWindowLo + uint64(loPage)%pages*units.Page4K
		hi := min(lo+uint64(nPages)%(pages+1)*units.Page4K, unmapWindowHi)
		if len(layout) > 32 {
			layout = layout[:32]
		}
		checkUnmapRange(t, layout, lo, hi, keep)
	})
}

// TestUnmapRangeMatchesPerPage runs the equivalence check on hand-picked
// layouts: full and partial leaf tables, holes, physically scattered
// frames, and huge pages straddling either end of the range.
func TestUnmapRangeMatchesPerPage(t *testing.T) {
	const page = units.Page4K
	cases := []struct {
		name   string
		layout []byte
		lo, hi uint64
	}{
		{"4KB runs and holes", []byte{0xfd, 0x40, 0x09, 0xfd, 0x81, 0x21}, unmapWindowLo + 3*page, unmapWindowLo + 300*page},
		{"across leaf tables", []byte{0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd, 0xfd}, unmapWindowLo, unmapWindowLo + units.Page2M + 77*page},
		{"2MB straddles both ends", []byte{0x02, 0x02, 0x02, 0x02}, unmapWindowLo + 5*page, unmapWindowLo + 3*units.Page2M + 9*page},
		{"1GB straddles", []byte{0x03}, unmapWindowLo + units.Page2M + page, unmapWindowLo + 7*units.Page2M},
		{"demoted 1GB", []byte{0x03, 0x0b, 0x09, 0x01}, unmapWindowLo, unmapWindowHi},
		{"empty range", []byte{0xfd}, unmapWindowLo + page, unmapWindowLo + page},
	}
	for _, c := range cases {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/keep=%v", c.name, keep), func(t *testing.T) {
				checkUnmapRange(t, c.layout, c.lo, c.hi, keep)
			})
		}
	}
}

// layOut maps the window's mappings on k, one layout byte at a time, from
// a cursor starting at the window's base. Bits 0-1 pick the op and the
// rest give its argument a:
//
//	0: skip a+1 pages (a hole)
//	1: map a+1 4KB pages, one AllocMapped each
//	2: map a 2MB page at the next 2MB boundary (a odd: demote it to 4KB)
//	3: a%4 == 0: map a 1GB page at the next 1GB boundary;
//	   a%4 == 1: allocate a spare frame, so later 4KB frames scatter;
//	   a%4 == 2: demote the 1GB page mapped last to 2MB pages;
//	   a%4 == 3: map 4KB pages up to the next 2MB boundary (a full table)
//
// Ops that do not fit (overlap, no memory, past the window) are skipped,
// so every layout is legal.
func layOut(t *testing.T, k *Kernel, task *Task, layout []byte) {
	t.Helper()
	const page = units.Page4K
	cur := uint64(unmapWindowLo)
	last1G := uint64(0)
	mapPages := func(n uint64) {
		for ; n > 0 && cur < unmapWindowHi; n-- {
			k.AllocMapped(task, cur, units.Size4K) // an overlap just leaves the page
			cur += page
		}
	}
	for _, b := range layout {
		a := uint64(b >> 2)
		switch b & 3 {
		case 0:
			cur += (a + 1) * page
		case 1:
			mapPages(a + 1)
		case 2:
			cur = units.AlignUp(cur, units.Page2M)
			if cur < unmapWindowHi {
				if _, err := k.AllocMapped(task, cur, units.Size2M); err == nil && a%2 == 1 {
					if err := k.DemotePage(task, cur); err != nil {
						t.Fatal(err)
					}
				}
				cur += units.Page2M
			}
		case 3:
			switch a % 4 {
			case 0:
				cur = units.AlignUp(cur, units.Page1G)
				if cur < unmapWindowHi {
					if _, err := k.AllocMapped(task, cur, units.Size1G); err == nil {
						last1G = cur
					}
					cur += units.Page1G
				}
			case 1:
				k.Buddy.Alloc(0, false)
			case 2:
				if last1G != 0 {
					if err := k.DemotePage(task, last1G); err != nil {
						t.Fatal(err)
					}
					last1G = 0
				}
			case 3:
				mapPages((units.AlignUp(cur+1, units.Page2M) - cur) / page)
			}
		}
	}
}

// unmapRangePerPage is UnmapRange's per-page definition: demote the
// lowest straddling huge mapping until none is left, then UnmapFree every
// mapping inside the range in ascending VA order.
func unmapRangePerPage(k *Kernel, t *Task, lo, hi uint64) error {
	for {
		var straddler uint64
		var found bool
		var inside []pagetable.Mapping
		t.AS.PT.ForEach(lo, hi, func(m pagetable.Mapping) bool {
			if m.VA < lo || m.VA+m.Size.Bytes() > hi {
				straddler, found = m.VA, true
				return false
			}
			inside = append(inside, m)
			return true
		})
		if found {
			if err := k.DemotePage(t, straddler); err != nil {
				return err
			}
			continue
		}
		for _, m := range inside {
			if err := k.UnmapFree(t, m.VA, m.Size); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkUnmapRange lays layout out on two kernels, tears [lo, hi) down on
// one by runs and on the other page by page, and requires the machines to
// agree (see FuzzUnmapRangeEquivalence).
func checkUnmapRange(t *testing.T, layout []byte, lo, hi uint64, keep bool) {
	t.Helper()
	var ks [2]*Kernel
	var ts [2]*Task
	var shot, kept [2][]string
	var errs [2]error
	for side := range ks {
		k := newKernel(t, 2)
		task := k.NewTask("p")
		layOut(t, k, task, layout)
		k.Shootdown = func(_ *Task, va, n uint64, size units.PageSize) {
			for i := uint64(0); i < n; i++ {
				shot[side] = append(shot[side], fmt.Sprint(va+i*size.Bytes(), size))
			}
		}
		switch {
		case side == 0 && keep:
			k.UnmapRangeKeep(task, lo, hi, func(r pagetable.Run) {
				for i, pfn := range r.PFNs {
					kept[side] = append(kept[side], fmt.Sprint(r.VA+uint64(i)*r.Size.Bytes(), pfn, r.Size))
				}
			})
		case side == 0:
			errs[side] = k.UnmapRange(task, lo, hi)
		case keep:
			var inside []pagetable.Mapping
			task.AS.PT.ForEach(lo, hi, func(m pagetable.Mapping) bool {
				if m.VA >= lo && m.VA+m.Size.Bytes() <= hi {
					inside = append(inside, m)
				}
				return true
			})
			for _, m := range inside {
				pfn, err := k.UnmapKeep(task, m.VA, m.Size)
				if err != nil {
					t.Fatal(err)
				}
				kept[side] = append(kept[side], fmt.Sprint(m.VA, pfn, m.Size))
			}
		default:
			errs[side] = unmapRangePerPage(k, task, lo, hi)
		}
		ks[side], ts[side] = k, task
	}
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		t.Fatalf("run teardown error %v, per-page %v", errs[0], errs[1])
	}
	requireSameMappings(t, ts[0], ts[1])
	if ks[0].Ops != ks[1].Ops {
		t.Fatalf("ops %+v, want %+v", ks[0].Ops, ks[1].Ops)
	}
	if !slices.Equal(shot[0], shot[1]) {
		t.Fatalf("shootdowns differ: %d pages vs %d", len(shot[0]), len(shot[1]))
	}
	if !slices.Equal(kept[0], kept[1]) {
		t.Fatalf("kept frames differ: %d pages vs %d", len(kept[0]), len(kept[1]))
	}
	if got, want := machineState(ks[0]), machineState(ks[1]); !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("machine state differs at %d: %s, want %s", i, got[i], want[i])
			}
		}
		t.Fatalf("machine state: %d lines, want %d", len(got), len(want))
	}
	// A leaf table left behind (or reclaimed too early) shows as an
	// Overlaps answer that differs for its 2MB window.
	for w := units.Align(lo, units.Page2M); w < hi; w += units.Page2M {
		if o0, o1 := ts[0].AS.PT.Overlaps(w, units.Size2M), ts[1].AS.PT.Overlaps(w, units.Size2M); o0 != o1 {
			t.Fatalf("Overlaps(%#x, 2MB) = %v, want %v", w, o0, o1)
		}
	}
	for side, k := range ks {
		if err := k.Buddy.CheckInvariants(); err != nil {
			t.Fatalf("side %d: %v", side, err)
		}
	}
}

// machineState renders the reverse map, the buddy free lists and counts
// and the region counters of k.
func machineState(k *Kernel) (out []string) {
	k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
		out = append(out, fmt.Sprint("owner ", pfn, o))
		return true
	})
	for o := 0; o <= k.Buddy.MaxOrder(); o++ {
		out = append(out, fmt.Sprint("order ", o, k.Buddy.FreeChunks(o), k.Buddy.FreeChunkHeads(o)))
	}
	for r := uint64(0); r < k.Mem.NumRegions(); r++ {
		out = append(out, fmt.Sprint("region ", r, k.Mem.Region(r)))
	}
	return append(out, fmt.Sprint("frames ", k.Mem.FreeFrames(), k.Mem.AllocatedFrames()))
}

// TestUnmapRangeAllocs pins the munmap path's heap use: once the page
// table's node pools and the phys owner slots are warm, mapping a run
// and tearing it down with UnmapRange allocates nothing.
func TestUnmapRangeAllocs(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	const va, pages = units.Page1G - 300*units.Page4K, 700 // crosses a 1GB boundary
	cycle := func() {
		pfn, n, err := k.Buddy.AllocRun(pages)
		if err != nil || n != pages {
			t.Fatalf("AllocRun = %d, %d, %v", pfn, n, err)
		}
		if _, err := k.MapRun(task, va, pfn, n); err != nil {
			t.Fatal(err)
		}
		if err := k.UnmapRange(task, va, va+pages*units.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("map + UnmapRange allocates %v times per call, want 0", allocs)
	}
}
