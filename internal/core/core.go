// Package core assembles the paper's primary contribution — the Trident
// memory manager — from its mechanisms: the 1GB→2MB→4KB fault path
// (internal/fault), the Figure-5 promotion daemon (internal/promote), smart
// compaction (internal/compact) and asynchronous zero-fill
// (internal/zerofill), all over the 1GB-extended buddy allocator
// (internal/buddy, units.TridentMaxOrder).
//
// The two ablations of Figure 11 are variants of the same composition:
// VariantNo2M forbids 2MB pages everywhere (Trident-1Gonly), and
// VariantNormalCompaction replaces smart compaction with Linux's sequential
// compactor for 1GB chunks (Trident-NC).
package core

import (
	"repro/internal/compact"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/promote"
	"repro/internal/zerofill"
)

// Variant selects the Trident configuration.
type Variant int

// The paper's configurations of Trident.
const (
	// VariantFull is the complete system (Figures 9–13).
	VariantFull Variant = iota
	// VariantNo2M is Trident-1Gonly: 1GB or 4KB, never 2MB (Figure 11).
	VariantNo2M
	// VariantNormalCompaction is Trident-NC: all three page sizes, but 1GB
	// chunks come from Linux's sequential compactor (Figure 11).
	VariantNormalCompaction
)

// System is a fully wired Trident instance over one kernel.
type System struct {
	K *kernel.Kernel
	// Zero is the asynchronous zero-fill daemon (§5.1.2).
	Zero *zerofill.Daemon
	// Fault is the page-fault policy (§5.1.2).
	Fault *fault.Trident
	// Khugepaged is the promotion daemon (Figure 5) with its compactors.
	Khugepaged *promote.Daemon
}

// New assembles Trident over k, which must use the 1GB-extended buddy
// (units.TridentMaxOrder). The zero-fill pool starts empty; call
// Zero.Refill to pre-zero free regions as a freshly booted kernel's idle
// loop would.
func New(k *kernel.Kernel, v Variant) *System {
	zero := zerofill.New(k)
	fp := fault.NewTrident(k, zero)
	var d *promote.Daemon
	switch v {
	case VariantNo2M:
		fp.Use2M = false
		d = promote.NewTrident(k, zero)
		d.Disable2M = true
	case VariantNormalCompaction:
		d = promote.New(k, zero)
		d.Enable1G = true
		d.Normal1G = compact.NewNormal(k)
	default:
		d = promote.NewTrident(k, zero)
	}
	return &System{K: k, Zero: zero, Fault: fp, Khugepaged: d}
}
