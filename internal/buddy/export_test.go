package buddy

import "unsafe"

// backingBytes sums the capacities of everything the allocator holds:
// its per-order free lists, their bitmap words, and the per-order counts.
func (a *Allocator) backingBytes() uint64 {
	n := uint64(cap(a.free))*uint64(unsafe.Sizeof(freeList{})) + uint64(cap(a.counts))*8
	for _, fl := range a.free[:cap(a.free)] {
		n += uint64(cap(fl.words)) * 8
	}
	return n
}
