// Package virt models the virtualization stack of §§2, 4.2 and 6: a VM is
// a host-side task whose virtual addresses are the guest-physical addresses
// (the EPT), plus a complete guest kernel managing that guest-physical
// space with its own buddy allocator, fault policies and daemons.
//
// Address translation in a VM is two-dimensional (package mmu); the page
// size at each level is decided independently — by the host's policy when
// backing guest memory, and by the guest's policy when mapping application
// memory — which is how Figure 2's 4KB+4KB / 2MB+2MB / 1GB+1GB
// configurations arise.
//
// Trident_pv's hypercall is implemented literally: the guest passes batches
// of (source gPA, destination gPA) pairs, and the hypervisor exchanges the
// corresponding gPA→hPA mappings (Figure 8c), demoting any covering host
// 1GB mapping to 2MB first (the exchange needs 2MB-granular host entries).
package virt

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/perfmodel"
	"repro/internal/promote"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Stats accumulates hypervisor-side activity.
type Stats struct {
	// Hypercalls counts guest→host transitions for pv exchanges.
	Hypercalls uint64
	// PagesExchanged counts 2MB-granule gPA↔hPA exchanges performed.
	PagesExchanged uint64
	// HostDemotions counts host 1GB mappings split to satisfy exchanges.
	HostDemotions uint64
	// ExchangeFailures counts pairs the hypervisor could not exchange (the
	// guest falls back to copying; §6: "On failure, the guest falls back to
	// individually copy contents of pages").
	ExchangeFailures uint64
	// Nanoseconds is the modeled hypervisor time for exchanges.
	Nanoseconds float64
}

// VM is one virtual machine.
type VM struct {
	// Host is the hypervisor's kernel; HostTask is the VM's memory as seen
	// by the host (VAs = gPAs).
	Host     *kernel.Kernel
	HostTask *kernel.Task
	// Guest is the guest OS kernel managing guest-physical memory.
	Guest *kernel.Kernel

	S Stats
}

// New creates a VM whose guest-physical memory is managed by guest, a
// just-booted kernel (kernel.New, or a pooled kernel Reset and re-booted
// with kernel.Boot) whose memory size is the VM's, and
// backs all of it immediately through hostPolicy (KVM backs guest memory
// with THP in the paper's baseline; with Trident when Trident runs at the
// host level). The guest's buddy flavour (stock vs Trident) is the one it
// was booted with.
func New(host *kernel.Kernel, hostPolicy fault.Policy, guest *kernel.Kernel) (*VM, error) {
	if n := guest.Mem.AllocatedFrames(); n != 0 {
		return nil, fmt.Errorf("virt: guest kernel already holds %d allocated frames", n)
	}
	guestBytes := guest.Mem.Bytes()
	vm := &VM{
		Host:     host,
		HostTask: host.NewTask("vm"),
		Guest:    guest,
	}
	if err := vm.HostTask.AS.MMapFixed(0, guestBytes, vmm.KindAnon); err != nil {
		return nil, fmt.Errorf("virt: gPA space: %w", err)
	}
	// Back all guest memory now (a VM that touches its whole memory at
	// boot; also what the paper's async zero-fill boot-time experiment
	// exercises).
	for gpa := uint64(0); gpa < guestBytes; {
		r, err := hostPolicy.Handle(vm.HostTask, gpa)
		if err != nil {
			return nil, fmt.Errorf("virt: backing gPA %#x: %w", gpa, err)
		}
		gpa = r.VA + r.Size.Bytes()
	}
	return vm, nil
}

// HostPT returns the gPA→hPA table (the EPT).
func (vm *VM) HostPT() *pagetable.Table { return vm.HostTask.AS.PT }

// ExchangeGPAs performs one hypercall exchanging the gPA→hPA mappings of
// each (src, dst) pair of 2MB-aligned, 2MB-sized guest-physical ranges.
// batched=false models the pre-batching design: one hypercall per pair.
// It returns the modeled hypervisor nanoseconds.
func (vm *VM) ExchangeGPAs(pairs [][2]uint64, batched bool) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var ns float64
	if batched {
		// Up to 512 pairs per hypercall: two pre-defined shared 4KB pages
		// hold the source and target gPA lists (§6).
		batches := (len(pairs) + 511) / 512
		vm.S.Hypercalls += uint64(batches)
		ns += float64(batches) * perfmodel.HypercallNs
		ns += float64(len(pairs)) * perfmodel.ExchangeBatchedNs
	} else {
		vm.S.Hypercalls += uint64(len(pairs))
		ns += float64(len(pairs)) * (perfmodel.HypercallNs + perfmodel.ExchangeUnbatchedNs)
	}
	for _, p := range pairs {
		if err := vm.exchangeOne(p[0], p[1]); err != nil {
			vm.S.ExchangeFailures++
			// Guest falls back to copying this pair.
			ns += perfmodel.CopyNs(units.Page2M)
			continue
		}
		vm.S.PagesExchanged++
	}
	vm.S.Nanoseconds += ns
	return ns
}

// exchangeOne swaps the host frames behind two 2MB gPA ranges, demoting
// host mappings to a common granularity first.
func (vm *VM) exchangeOne(src, dst uint64) error {
	if !units.IsAligned(src, units.Page2M) || !units.IsAligned(dst, units.Page2M) {
		return fmt.Errorf("virt: misaligned exchange %#x↔%#x", src, dst)
	}
	gs, err := vm.granularity2M(src)
	if err != nil {
		return err
	}
	gd, err := vm.granularity2M(dst)
	if err != nil {
		return err
	}
	// Mixed granularity: split the 2MB side down to 4KB to match.
	if gs != gd {
		coarse := src
		if gd == units.Size2M {
			coarse = dst
		}
		if err := vm.Host.DemotePage(vm.HostTask, coarse); err != nil {
			return err
		}
		vm.S.HostDemotions++
		gs = units.Size4K
	}
	step := gs.Bytes()
	for off := uint64(0); off < units.Page2M; off += step {
		if err := vm.Host.ExchangeFrames(vm.HostTask, src+off, vm.HostTask, dst+off, gs); err != nil {
			return err
		}
	}
	return nil
}

// granularity2M ensures the 2MB gPA range at base is mapped at 2MB or 4KB
// granularity (demoting a covering 1GB mapping) and returns that
// granularity.
func (vm *VM) granularity2M(base uint64) (units.PageSize, error) {
	m, ok := vm.HostPT().Lookup(base)
	if !ok {
		return 0, fmt.Errorf("virt: gPA %#x not backed", base)
	}
	if m.Size == units.Size1G {
		if err := vm.Host.DemotePage(vm.HostTask, m.VA); err != nil {
			return 0, err
		}
		vm.S.HostDemotions++
		m, ok = vm.HostPT().Lookup(base)
		if !ok {
			return 0, fmt.Errorf("virt: gPA %#x lost after demotion", base)
		}
	}
	if m.Size == units.Size2M && m.VA != base {
		return 0, fmt.Errorf("virt: gPA %#x not 2MB-aligned in host table", base)
	}
	return m.Size, nil
}

// AttachPvExchange wires a guest promotion daemon's exchange events to this
// VM's hypercall, buffering pairs so a 1GB promotion's 512 exchanges travel
// in one (or per-page, if unbatched) hypercall. If the daemon uses smart
// compaction, its 2MB-granule moves become copy-less too (§6 applies the
// same hypercall to guest compaction). Call Flush after each promotion
// pass.
func (vm *VM) AttachPvExchange(d *promote.Daemon, batched bool) *PvBridge {
	b := &PvBridge{vm: vm, batched: batched}
	d.OnExchange = func(src, dst uint64) { b.pairs = append(b.pairs, [2]uint64{src, dst}) }
	if batched {
		d.Move = promote.MovePvBatched
	} else {
		d.Move = promote.MovePvUnbatched
	}
	if d.Smart != nil {
		d.Smart.OnPvMove = func(src, dst uint64) { b.pairs = append(b.pairs, [2]uint64{src, dst}) }
	}
	return b
}

// PvBridge buffers exchange requests between guest promotion and the
// hypervisor.
type PvBridge struct {
	vm      *VM
	batched bool
	pairs   [][2]uint64
}

// Flush issues the buffered exchanges as hypercalls, returning modeled ns.
func (b *PvBridge) Flush() float64 {
	ns := b.vm.ExchangeGPAs(b.pairs, b.batched)
	b.pairs = b.pairs[:0]
	return ns
}
