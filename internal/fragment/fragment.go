// Package fragment reproduces the paper's §3 fragmentation methodology:
// cache a large file in the page cache until the Free Memory Fragmentation
// Index reaches ~0.95, then let random-offset reads drive reclamation so
// that freed memory comes back in non-contiguous 4KB holes.
//
// The simulator's equivalent: a "pagecache" task maps movable 4KB pages
// over all free memory (low addresses first, like the buddy), unmovable
// kernel objects are clustered into a few regions (Linux's migrate-type
// grouping keeps unmovable allocations together — and Illuminator [43]
// showed what happens when it fails), and finally random pages are freed
// until the requested amount of free-but-scattered memory remains.
//
// After Apply, FMFI at 2MB granularity is ≈1: a workload's large-page
// faults fail until compaction runs, exactly the regime of Figures 10/11
// and the "Fragmented" columns of Tables 3/4.
package fragment

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

// Config controls the fragmentation pattern.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// UnmovableBytes of kernel objects are scattered inside the lowest
	// regions (clustered, at ~50% density within those regions).
	UnmovableBytes uint64
	// FreeBytes is how much memory to leave free — scattered as 4KB holes.
	FreeBytes uint64
}

// Fragmenter holds the page-cache state so more memory can be reclaimed
// during a run.
type Fragmenter struct {
	K     *kernel.Kernel
	Cache *kernel.Task

	rng *xrand.Rand
	// held groups cache-page VAs by the 1GB physical region of their frame
	// (indexed by region), so reclaim can apply per-region pressure.
	held [][]uint64
	// weight orders regions by reclaim pressure (a shuffled rank per
	// region; higher rank means drained harder), indexed like held.
	weight []float64
	total  uint64 // held pages
}

// Apply fragments k's physical memory per cfg and returns the fragmenter
// for later reclamation.
//
// The page-cache fill and the first reclaim are computed, not replayed:
// the machine ends in exactly the state that mapping a cache page over
// every free frame and then unmapping the reclaimed ones would leave
// (buddy free lists, page table, reverse map, region counters, the held
// lists and the rng position), but only the pages that survive reclaim
// are ever allocated and mapped. kernel.Ops counts that work alone.
func Apply(k *kernel.Kernel, cfg Config) (*Fragmenter, error) {
	f := &Fragmenter{
		K:     k,
		Cache: k.NewTask("pagecache"),
		rng:   xrand.New(cfg.Seed),
	}
	// 1. Clustered unmovable kernel objects.
	if err := f.placeUnmovable(cfg.UnmovableBytes); err != nil {
		return nil, err
	}

	// 2. Page-cache fill order: repeated Alloc(0) over all free memory
	// hands out the free chunks of order 0, then order 1, and so on, lowest
	// address first within an order and frames ascending within a chunk
	// (splitting a chunk refills only lower orders, which the rest of that
	// chunk then drains). The i-th page of that order maps at va + i*4KB.
	fillPages := k.Mem.FreeFrames()
	va, err := f.Cache.AS.MMap(units.AlignUp(fillPages*units.Page4K, units.Page4K), vmm.KindAnon)
	if err != nil {
		return nil, fmt.Errorf("fragment: cache VMA: %w", err)
	}
	f.initHeld()
	heads := make([][]uint64, k.Buddy.MaxOrder()+1)
	pageVA := va
	for o := range heads {
		heads[o] = k.Buddy.FreeChunkHeads(o)
		for _, h := range heads[o] {
			r := units.RegionOfFrame(h) // chunks never straddle a 1GB region
			for end := pageVA + units.Page4K<<uint(o); pageVA < end; pageVA += units.Page4K {
				f.held[r] = append(f.held[r], pageVA)
			}
		}
	}
	f.total = fillPages
	f.assignWeights()

	// 3. Random reclamation, chosen exactly as ReclaimRandom chooses, but
	// the chosen pages are only marked: they were never mapped.
	reclaimed := make([]uint64, (fillPages+63)/64)
	got := f.reclaim(cfg.FreeBytes, func(v uint64) {
		i := (v - va) / units.Page4K
		reclaimed[i/64] |= 1 << (i % 64)
	})

	// 4. Commit: allocate and map the surviving pages.
	i := uint64(0)
	for o, hs := range heads {
		for _, h := range hs {
			for pfn := h; pfn < h+uint64(1)<<uint(o); pfn, i = pfn+1, i+1 {
				if reclaimed[i/64]&(1<<(i%64)) != 0 {
					continue
				}
				if err := k.Buddy.AllocSpecific(pfn, 0, false); err != nil {
					return nil, fmt.Errorf("fragment: fill alloc: %w", err)
				}
				if err := k.MapSpecific(f.Cache, va+i*units.Page4K, pfn, units.Size4K); err != nil {
					return nil, fmt.Errorf("fragment: fill map: %w", err)
				}
			}
		}
	}
	if got < cfg.FreeBytes {
		return nil, fmt.Errorf("fragment: reclaimed only %d of %d bytes", got, cfg.FreeBytes)
	}
	return f, nil
}

// placeUnmovable places clustered unmovable kernel objects: ~50% density
// in the lowest regions until bytes are placed.
func (f *Fragmenter) placeUnmovable(bytes uint64) error {
	if bytes == 0 {
		return nil
	}
	k := f.K
	placed := uint64(0)
	for region := uint64(0); region < k.Mem.NumRegions() && placed < bytes; region++ {
		base := region * units.FramesPerRegion
		for i := uint64(0); i < units.FramesPerRegion/2 && placed < bytes; i++ {
			pfn := base + f.rng.Uint64n(units.FramesPerRegion)
			if k.Mem.IsAllocated(pfn) {
				continue
			}
			if err := k.Buddy.AllocSpecific(pfn, 0, true); err != nil {
				continue
			}
			placed += units.Page4K
		}
	}
	if placed < bytes {
		return fmt.Errorf("fragment: placed only %d of %d unmovable bytes", placed, bytes)
	}
	return nil
}

// initHeld sizes the per-region held lists for a fill of all free memory.
func (f *Fragmenter) initHeld() {
	n := f.K.Mem.NumRegions()
	f.held = make([][]uint64, n)
	for r := range f.held {
		f.held[r] = make([]uint64, 0, f.K.Mem.Region(uint64(r)).Free)
	}
	f.weight = make([]float64, n)
}

// assignWeights gives each region that holds cache pages a reclaim
// pressure: a shuffled rank, cubed, so a few regions drain almost entirely
// while others stay nearly full. (minResidentPages keeps even the
// hardest-drained region scattered.)
func (f *Fragmenter) assignWeights() {
	var regions []int
	for r, vas := range f.held {
		if len(vas) > 0 {
			regions = append(regions, r)
		}
	}
	f.rng.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
	for rank, r := range regions {
		w := float64(rank+1) / float64(len(regions))
		f.weight[r] = w * w * w
	}
}

// ReclaimRandom frees randomly chosen cache pages until `bytes` more bytes
// are free (mimicking reclaim under memory pressure). Reclaim pressure is
// skewed across physical regions — LRU reclaim drains some parts of the
// page cache far harder than others — so region occupancy ends up
// heterogeneous: some 1GB regions nearly empty, others nearly full. That
// gradient is what smart compaction exploits (Figures 6b and 7); uniformly
// reclaimed memory would leave it nothing to choose between. Within a
// region, freed pages are chosen at random, so the surviving occupancy is
// non-contiguous (FMFI stays ≈1 at 2MB granularity). It returns the bytes
// actually freed, which is less than requested only if the cache runs dry.
// minResidentPages is the floor of cache pages reclaim leaves in every
// region: 1024 scattered 4KB pages per 1GB keep free runs short, so even a
// heavily drained region offers no free 1GB chunk and few 2MB chunks
// (FMFI stays high), while its low occupancy makes it a cheap smart-
// compaction source.
const minResidentPages = 1024

func (f *Fragmenter) ReclaimRandom(bytes uint64) uint64 {
	return f.reclaim(bytes, func(va uint64) {
		if err := f.K.UnmapFree(f.Cache, va, units.Size4K); err != nil {
			panic("fragment: reclaim of held page failed: " + err.Error())
		}
	})
}

// reclaim is ReclaimRandom's selection: it drops the chosen pages from the
// held lists and hands each one's VA to free.
func (f *Fragmenter) reclaim(bytes uint64, free func(va uint64)) uint64 {
	want := bytes / units.Page4K
	if want == 0 {
		return 0
	}
	// Summed in ascending region order: float addition is not associative,
	// and a 1-ulp difference in sumW can flip an integer quota.
	var sumW float64
	for r, vas := range f.held {
		if len(vas) > 0 {
			sumW += f.weight[r]
		}
	}
	if sumW == 0 {
		return 0
	}
	var freed uint64
	// Per-region quotas proportional to pressure; loop until satisfied so
	// leftovers spill into whatever still holds pages.
	for freed < want && f.total > 0 {
		progressed := false
		for r := 0; r < len(f.held) && freed < want; r++ {
			vas := f.held[r]
			if len(vas) <= minResidentPages {
				continue
			}
			quota := uint64(float64(want) * f.weight[r] / sumW)
			if quota == 0 {
				quota = 1
			}
			if max := uint64(len(vas) - minResidentPages); quota > max {
				quota = max
			}
			for q := uint64(0); q < quota && freed < want && len(vas) > minResidentPages; q++ {
				i := f.rng.Intn(len(vas))
				va := vas[i]
				vas[i] = vas[len(vas)-1]
				vas = vas[:len(vas)-1]
				free(va)
				freed++
				f.total--
				progressed = true
			}
			f.held[r] = vas
		}
		if !progressed {
			break
		}
	}
	return freed * units.Page4K
}

// HeldBytes returns the bytes still held by the simulated page cache.
func (f *Fragmenter) HeldBytes() uint64 {
	return f.total * units.Page4K
}
