package trident

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/compact"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/promote"
	"repro/internal/units"
	"repro/internal/virt"
	"repro/internal/vmm"
	"repro/internal/zerofill"
)

// This file exposes the building blocks beneath Run for programs that want
// to drive the machinery directly (the examples/ directory does): the
// kernel, fault policies, daemons, compactors and the virtualization layer.

// Page sizes and byte units.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB

	Page4K = units.Page4K
	Page2M = units.Page2M
	Page1G = units.Page1G
)

// PageSize identifies one of the three x86-64 page sizes.
type PageSize = units.PageSize

// The three translation granularities.
const (
	Size4K = units.Size4K
	Size2M = units.Size2M
	Size1G = units.Size1G
)

// Buddy-allocator flavours (maximum tracked chunk order).
const (
	// StockMaxOrder: unmodified Linux free lists (up to 4MB chunks).
	StockMaxOrder = units.StockMaxOrder
	// TridentMaxOrder: Trident's extension (up to 1GB chunks, §5.1.1).
	TridentMaxOrder = units.TridentMaxOrder
)

// HumanBytes renders a byte count like "1.5GB".
func HumanBytes(n uint64) string { return units.HumanBytes(n) }

// Kernel is the simulated operating system: physical memory, buddy
// allocator, tasks and the primitive mapping operations.
type Kernel = kernel.Kernel

// Task is one process (an address space plus accounting).
type Task = kernel.Task

// NewKernel boots a kernel over memBytes of physical memory with the given
// buddy flavour (StockMaxOrder or TridentMaxOrder).
func NewKernel(memBytes uint64, maxOrder int) *Kernel { return kernel.New(memBytes, maxOrder) }

// BuddyAllocator manages physical frames in power-of-two chunks.
type BuddyAllocator = buddy.Allocator

// PageTable is a 4-level x86-64 radix page table.
type PageTable = pagetable.Table

// Mapping describes one leaf page-table entry.
type Mapping = pagetable.Mapping

// FaultPolicy decides what page size serves a page fault.
type FaultPolicy = fault.Policy

// FaultResult describes how a fault was served.
type FaultResult = fault.Result

// Fault-policy constructors.
var (
	// NewBase4KPolicy maps every fault with 4KB pages.
	NewBase4KPolicy = fault.NewBase4K
	// NewTHPPolicy is Linux THP's fault path (2MB, fall back to 4KB).
	NewTHPPolicy = fault.NewTHP
	// NewHugetlbfsPolicy statically reserves a pool of huge pages.
	NewHugetlbfsPolicy = fault.NewHugetlbfs
	// NewTridentPolicy is the paper's 1GB → 2MB → 4KB fault path (§5.1.2).
	NewTridentPolicy = fault.NewTrident
)

// ZeroFillDaemon is the asynchronous 1GB zero-filler (§5.1.2).
type ZeroFillDaemon = zerofill.Daemon

// NewZeroFillDaemon creates a zero-fill daemon over k.
func NewZeroFillDaemon(k *Kernel) *ZeroFillDaemon { return zerofill.New(k) }

// PromoteDaemon is khugepaged: stock (2MB) or Trident's Figure-5 version.
type PromoteDaemon = promote.Daemon

// PromoteStats summarizes promotion activity.
type PromoteStats = promote.Stats

// NewPromoteDaemon creates stock khugepaged (2MB promotion only).
func NewPromoteDaemon(k *Kernel, zero *ZeroFillDaemon) *PromoteDaemon {
	return promote.New(k, zero)
}

// NewTridentPromoteDaemon creates Trident's promotion daemon: 1GB promotion
// with smart compaction, falling back to 2MB (Figure 5).
func NewTridentPromoteDaemon(k *Kernel, zero *ZeroFillDaemon) *PromoteDaemon {
	return promote.NewTrident(k, zero)
}

// SmartCompactor is Trident's region-counter-guided compactor (§5.1.3).
type SmartCompactor = compact.Smart

// NormalCompactor is Linux's sequential-scanning compactor.
type NormalCompactor = compact.Normal

// NewSmartCompactor creates a smart compactor over k.
func NewSmartCompactor(k *Kernel) *SmartCompactor { return compact.NewSmart(k) }

// NewNormalCompactor creates a sequential compactor over k.
func NewNormalCompactor(k *Kernel) *NormalCompactor { return compact.NewNormal(k) }

// Fragmenter reproduces the §3 fragmentation methodology.
type Fragmenter = fragment.Fragmenter

// FragmentConfig controls the fragmentation pattern.
type FragmentConfig = fragment.Config

// FragmentMemory fragments k's physical memory (page-cache fill, clustered
// unmovable data, skewed reclaim) and returns the fragmenter.
func FragmentMemory(k *Kernel, cfg FragmentConfig) (*Fragmenter, error) {
	return fragment.Apply(k, cfg)
}

// VM is a virtual machine: a host-side task backing guest-physical memory
// plus a complete guest kernel.
type VM = virt.VM

// NewVM creates a VM with guestBytes of memory backed through hostPolicy.
// guestBytes must be a positive multiple of 1GB; guestMaxOrder selects the
// guest kernel's buddy flavour (StockMaxOrder or TridentMaxOrder) and must
// lie between the 2MB page's order, 9, and TridentMaxOrder.
func NewVM(host *Kernel, hostPolicy FaultPolicy, guestBytes uint64, guestMaxOrder int) (*VM, error) {
	if guestBytes == 0 || guestBytes%units.Page1G != 0 {
		return nil, fmt.Errorf("virt: guest memory %d not a 1GB multiple", guestBytes)
	}
	if guestMaxOrder < units.Order2M || guestMaxOrder > units.TridentMaxOrder {
		return nil, fmt.Errorf("virt: guest max order %d outside [%d, %d]", guestMaxOrder, units.Order2M, units.TridentMaxOrder)
	}
	return virt.New(host, hostPolicy, kernel.New(guestBytes, guestMaxOrder))
}

// PvBridge buffers Trident_pv exchange requests between a guest promotion
// daemon and the hypervisor; Flush issues them as hypercalls.
type PvBridge = virt.PvBridge

// MMU simulates a core's translation hardware (TLBs, paging-structure
// caches, nested walks).
type MMU = mmu.MMU

// NewMMU creates an MMU for native and virtualized runs alike: a nil host
// table passed to its Translate means native.
func NewMMU(cfg TLBConfig) *MMU { return mmu.New(cfg) }

// VMAKind classifies virtual memory areas.
type VMAKind = vmm.Kind

// VMA kinds.
const (
	VMAAnon  = vmm.KindAnon
	VMAStack = vmm.KindStack
)
