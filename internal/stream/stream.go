// Package stream holds the flat reference-stream types shared by the
// run-coalesced translation pipeline: workload.NextRuns fills a []Run
// buffer, tlb.SweepL1Runs and mmu.TranslateRuns consume it. It is a leaf
// package (like units and xrand) so every layer of the pipeline can
// exchange buffers without introducing cross-layer imports.
package stream

// Access is one memory reference drawn from a workload: a virtual address
// and whether the reference writes. The struct is deliberately flat (16
// bytes, no pointers) so a []Run is a single contiguous allocation that the
// pipeline reuses across batches.
type Access struct {
	VA    uint64
	Write bool
}

// Run is a maximal run of Len consecutive references to the same page,
// represented by the run's first reference (workload.NextRuns coalesces at
// draw time; the page boundary is the finest configured page size, so a run
// stays within one page at every size a TLB could map it with). The
// run-coalesced translation pipeline (tlb.SweepL1Runs, mmu.TranslateRuns)
// performs one probe or walk per run and weights the hit/miss counters by
// Len — byte-identical to translating each reference, see DESIGN.md §5c.
type Run struct {
	Access
	Len int
}
