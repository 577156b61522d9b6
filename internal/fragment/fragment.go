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
	"math"
	"math/bits"

	"repro/internal/kernel"
	"repro/internal/phys"
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
// during a run. A Fragmenter can be applied again, to any machine: Apply
// then reuses the buffers of its earlier applications.
type Fragmenter struct {
	K     *kernel.Kernel
	Cache *kernel.Task

	rng xrand.Rand
	// base is the cache VMA's start: fill page i maps at base + i*4KB.
	base uint64
	// held groups cache pages, by fill index, under the 1GB physical region
	// of their frame (indexed by region), so reclaim can apply per-region
	// pressure. The lists are carved out of heldBuf, one per region with
	// the region's free frames at fill time as its capacity.
	held    [][]uint32
	heldBuf []uint32
	// weight orders regions by reclaim pressure (a shuffled rank per
	// region; higher rank means drained harder), indexed like held.
	weight []float64
	total  uint64 // held pages

	// Apply's scratch, kept for the next Apply: the fill's free chunk heads
	// per order, the reclaimed fill indexes and the commit's free-frame
	// mask (bitmaps), and assignWeights' region list.
	heads           [][]uint64
	reclaimed, free []uint64
	regions         []int
}

// Apply fragments k's physical memory per cfg and returns the fragmenter
// for later reclamation.
//
// The page-cache fill and the first reclaim are computed, not replayed:
// the machine ends in exactly the state that mapping a cache page over
// every free frame and then unmapping the reclaimed ones would leave
// (buddy free lists, page table, reverse map, region counters, the held
// lists and the rng position), but only the pages that survive reclaim
// are ever allocated and mapped, a buddy chunk and a run of pages at a
// time. kernel.Ops counts that work alone.
func Apply(k *kernel.Kernel, cfg Config) (*Fragmenter, error) {
	f := new(Fragmenter)
	if err := f.Apply(k, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Apply is the package-level Apply into f: afterwards f is exactly the
// Fragmenter Apply(k, cfg) returns, whatever machines f was applied to
// before, but its buffers are the ones those applications grew, so an
// Apply at a size f has seen allocates no buffer (the machine pool,
// internal/sim, parks Fragmenters for that). On error f is left partly
// applied and must be applied again before use.
func (f *Fragmenter) Apply(k *kernel.Kernel, cfg Config) error {
	f.K, f.Cache = k, k.NewTask("pagecache")
	f.rng = *xrand.New(cfg.Seed)
	// 1. Clustered unmovable kernel objects.
	if err := f.placeUnmovable(cfg.UnmovableBytes); err != nil {
		return err
	}

	// 2. Page-cache fill order: repeated Alloc(0) over all free memory
	// hands out the free chunks of order 0, then order 1, and so on, lowest
	// address first within an order and frames ascending within a chunk
	// (splitting a chunk refills only lower orders, which the rest of that
	// chunk then drains). The i-th page of that order maps at base + i*4KB.
	fillPages := k.Mem.FreeFrames()
	if err := f.mapCache(fillPages); err != nil {
		return err
	}
	f.initHeld()
	f.heads = phys.Resized(f.heads, k.Buddy.MaxOrder()+1)
	i := uint32(0)
	for o := range f.heads {
		f.heads[o] = k.Buddy.AppendFreeChunkHeads(f.heads[o][:0], o)
		for _, h := range f.heads[o] {
			r := units.RegionOfFrame(h) // chunks never straddle a 1GB region
			held := f.held[r]
			pages := held[len(held) : len(held)+1<<uint(o)] // initHeld reserved them
			for j := range pages {
				pages[j] = i
				i++
			}
			f.held[r] = held[:len(held)+len(pages)]
		}
	}
	f.total = fillPages
	f.assignWeights()

	// 3. Random reclamation: reclaim chooses the pages, but they are only
	// marked (by fill index), since they were never mapped.
	f.reclaimed = phys.ResizedZero(f.reclaimed[:0], int((fillPages+63)/64))
	reclaimed := f.reclaimed
	got := f.reclaim(cfg.FreeBytes, func(i uint32) {
		reclaimed[i/64] |= 1 << (i % 64)
	})

	// 4. Commit, one fill chunk at a time. Fill index and PFN advance
	// together inside a chunk, so the chunk's slice of the reclaimed
	// bitmap, shifted to the chunk's head, is its free-frame mask. The
	// buddy carves the chunk by that mask, and each run of surviving frames
	// maps as one run of pages.
	f.free = phys.ResizedZero(f.free[:0], int((k.Mem.Frames()+63)/64))
	free := f.free
	fill := uint64(0)
	for o, hs := range f.heads {
		n := uint64(1) << uint(o)
		for _, h := range hs {
			copyBits(free, h, reclaimed, fill, n)
			k.Buddy.Carve(h, o, free)
			for pfn, end := h, h+n; ; {
				if pfn = nextBit(free, pfn, end, false); pfn == end {
					break
				}
				stop := nextBit(free, pfn, end, true)
				if _, err := k.MapRun(f.Cache, f.base+(fill+pfn-h)*units.Page4K, pfn, stop-pfn); err != nil {
					return fmt.Errorf("fragment: fill map: %w", err)
				}
				pfn = stop
			}
			fill += n
		}
	}
	if got < cfg.FreeBytes {
		return fmt.Errorf("fragment: reclaimed only %d of %d bytes", got, cfg.FreeBytes)
	}
	return nil
}

// mapCache maps the cache VMA for a fill of pages pages.
func (f *Fragmenter) mapCache(pages uint64) error {
	if pages > math.MaxUint32 {
		return fmt.Errorf("fragment: %d fill pages overflow the held lists' indexes", pages)
	}
	va, err := f.Cache.AS.MMap(units.AlignUp(pages*units.Page4K, units.Page4K), vmm.KindAnon)
	if err != nil {
		return fmt.Errorf("fragment: cache VMA: %w", err)
	}
	f.base = va
	return nil
}

// copyBits copies bits [from, from+n) of src to bits [to, to+n) of dst,
// where to is a multiple of n and n a power of two: a word at a time when
// n >= 64, else into one word of dst.
func copyBits(dst []uint64, to uint64, src []uint64, from, n uint64) {
	for k := uint64(0); k < n; k += 64 {
		pos := from + k
		w, s := pos/64, pos%64
		v := src[w] >> s
		if s != 0 && s+min(n, 64) > 64 {
			v |= src[w+1] << (64 - s)
		}
		if n < 64 {
			v &= 1<<n - 1
			dst[to/64] = dst[to/64]&^((1<<n-1)<<(to%64)) | v<<(to%64)
			return
		}
		dst[(to+k)/64] = v
	}
}

// nextBit returns the first index in [pos, end) whose bit in b is set (if
// want) or clear (if not), or end if there is none.
func nextBit(b []uint64, pos, end uint64, want bool) uint64 {
	for pos < end {
		w := b[pos/64]
		if !want {
			w = ^w
		}
		if w >>= pos % 64; w != 0 {
			return min(pos+uint64(bits.TrailingZeros64(w)), end)
		}
		pos = (pos/64 + 1) * 64
	}
	return end
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

// initHeld empties the per-region held lists and sizes them for a fill of
// all free memory, carving them out of heldBuf, and zeroes the weights.
func (f *Fragmenter) initHeld() {
	mem := f.K.Mem
	f.heldBuf = phys.Resized(f.heldBuf, int(mem.FreeFrames()))
	f.held = phys.Resized(f.held, int(mem.NumRegions()))
	off := 0
	for r := range f.held {
		end := off + int(mem.Region(uint64(r)).Free)
		f.held[r] = f.heldBuf[off:off:end]
		off = end
	}
	f.weight = phys.ResizedZero(f.weight[:0], len(f.held))
	f.total = 0
}

// assignWeights gives each region that holds cache pages a reclaim
// pressure: a shuffled rank, cubed, so a few regions drain almost entirely
// while others stay nearly full. (minResidentPages keeps even the
// hardest-drained region scattered.)
func (f *Fragmenter) assignWeights() {
	regions := f.regions[:0]
	for r, pages := range f.held {
		if len(pages) > 0 {
			regions = append(regions, r)
		}
	}
	f.regions = regions
	f.rng.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
	for rank, r := range regions {
		w := float64(rank+1) / float64(len(regions))
		f.weight[r] = w * w * w
	}
}

// minResidentPages is the floor of cache pages reclaim leaves in every
// region: 1024 scattered 4KB pages per 1GB keep free runs short, so even a
// heavily drained region offers no free 1GB chunk and few 2MB chunks
// (FMFI stays high), while its low occupancy makes it a cheap smart-
// compaction source.
const minResidentPages = 1024

// reclaim chooses random cache pages to free until `bytes` more bytes are
// free (mimicking reclaim under memory pressure). It drops the chosen
// pages from the held lists and hands each one's fill index to free.
// Reclaim pressure is skewed across physical regions — LRU reclaim drains
// some parts of the page cache far harder than others — so region
// occupancy ends up heterogeneous: some 1GB regions nearly empty, others
// nearly full. That gradient is what smart compaction exploits (Figures 6b
// and 7); uniformly reclaimed memory would leave it nothing to choose
// between. Within a region, freed pages are chosen at random, so the
// surviving occupancy is non-contiguous (FMFI stays ≈1 at 2MB
// granularity). It returns the bytes chosen, which is less than requested
// only if the cache runs dry.
func (f *Fragmenter) reclaim(bytes uint64, free func(i uint32)) uint64 {
	want := bytes / units.Page4K
	if want == 0 {
		return 0
	}
	// Summed in ascending region order: float addition is not associative,
	// and a 1-ulp difference in sumW can flip an integer quota.
	var sumW float64
	for r, pages := range f.held {
		if len(pages) > 0 {
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
			pages := f.held[r]
			if len(pages) <= minResidentPages {
				continue
			}
			quota := uint64(float64(want) * f.weight[r] / sumW)
			if quota == 0 {
				quota = 1
			}
			if max := uint64(len(pages) - minResidentPages); quota > max {
				quota = max
			}
			for q := uint64(0); q < quota && freed < want && len(pages) > minResidentPages; q++ {
				j := f.rng.Intn(len(pages))
				i := pages[j]
				pages[j] = pages[len(pages)-1]
				pages = pages[:len(pages)-1]
				free(i)
				freed++
				f.total--
				progressed = true
			}
			f.held[r] = pages
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
