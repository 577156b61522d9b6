package fragment

import (
	"repro/internal/phys"
	"repro/internal/units"
)

// ReclaimRandom is reclaim that drops each chosen page from the page cache
// one at a time: the page's frame, found through the reverse map, loses
// its owner and returns to the buddy, the file counts one page fewer, and
// the drop counts as an unmap. It
// returns the bytes freed. applyPerPage reclaims through it, so Apply's
// marked-only step 3 is pinned against it.
func (f *Fragmenter) ReclaimRandom(bytes uint64) uint64 {
	k := f.K
	frameOf := make([]uint64, k.Mem.Frames()) // fill index → frame+1, 0 if not cached
	k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
		if o.Space == f.Cache.AS.ID {
			frameOf[(o.VA-f.base)/units.Page4K] = pfn + 1
		}
		return true
	})
	return f.reclaim(bytes, func(i uint32) {
		if frameOf[i] == 0 {
			panic("fragment: reclaim of a page not in the cache")
		}
		pfn := frameOf[i] - 1
		frameOf[i] = 0
		k.Mem.ClearOwner(pfn)
		k.Buddy.Free(pfn, 0)
		f.Cache.Cached--
		k.Ops.Unmaps++
	})
}
