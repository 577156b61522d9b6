package tlb

import "repro/internal/units"

// Access translates one reference to a page of known size, updating TLB
// contents: the per-size reference that Probe, SweepL1Runs, ProbeL2 and
// AccessMissedAll are pinned against. It returns where the translation
// was found; Miss means a page walk is required (the entry has already
// been installed for subsequent accesses).
func (h *Hierarchy) Access(va uint64, size units.PageSize) Level {
	t := tag(va, size)
	if h.l1[size].Lookup(t) {
		return HitL1
	}
	if h.l2[size].Lookup(t) {
		h.l1[size].Insert(t)
		return HitL2
	}
	h.l2[size].Insert(t)
	h.l1[size].Insert(t)
	return Miss
}

// Probe checks for tag without updating LRU state.
func (t *TLB) Probe(tag uint64) bool {
	b := t.base(tag)
	for _, line := range t.lines[b : b+t.ways] {
		if line == tag {
			return true
		}
	}
	return false
}
