package fragment

import "repro/internal/units"

// ReclaimRandom is the unmapping reclaim of a mapped page cache: it frees
// the pages reclaim chooses by unmapping each from the cache task, one at
// a time, and returns the bytes freed. applyPerPage reclaims through it,
// so Apply's marked-only step 3 is pinned against it.
func (f *Fragmenter) ReclaimRandom(bytes uint64) uint64 {
	return f.reclaim(bytes, func(i uint32) {
		if err := f.K.UnmapFree(f.Cache, f.base+uint64(i)*units.Page4K, units.Size4K); err != nil {
			panic("fragment: reclaim of held page failed: " + err.Error())
		}
	})
}
