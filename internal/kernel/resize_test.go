package kernel_test

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/kernel"
	"repro/internal/units"
)

// FuzzResizeEquivalence pins kernel.Resize (with Reflavour, the machine
// pool's contract): a kernel booted at one size and flavour, driven, Reset,
// resized to another size and flavour, and driven again must behave
// exactly as a kernel booted at the second size and flavour — the same
// PFN for every allocation, the same free lists and kernel allocations
// afterwards, and a clean audit (which includes Buddy.CheckInvariants).
// When the flavours differ, the first kernel is reflavoured before its
// ops, so the allocator the second phase runs on is its resized spare.
//
// sizes holds the two memory sizes (1–4GB) in its low two bit pairs,
// flavours the two flavours in its low two bits; ops is split in half,
// one half per phase.
func FuzzResizeEquivalence(f *testing.F) {
	f.Add(uint8(0x0d), uint8(0), []byte{0x01, 0x12, 0x06, 0x22, 0x35, 0x02, 0x16, 0x01, 0x21, 0x12})
	f.Add(uint8(0x07), uint8(1), []byte{0x02, 0x12, 0x22, 0x03, 0x06, 0x16, 0x02, 0x12, 0x22, 0x32})
	f.Add(uint8(0x02), uint8(2), []byte{0x04, 0x14, 0x24, 0x06, 0x01, 0x11, 0x21, 0x31, 0x05, 0x07})
	f.Add(uint8(0x0c), uint8(3), []byte{0x16, 0x26, 0x36, 0x01, 0x00, 0x10, 0x20, 0x02, 0x12, 0x07})
	f.Fuzz(func(t *testing.T, sizes, flavours uint8, ops []byte) {
		orders := [2]int{units.StockMaxOrder, units.TridentMaxOrder}
		a := uint64(sizes&3+1) * units.Page1G
		b := uint64(sizes>>2&3+1) * units.Page1G
		first, second := orders[flavours&1], orders[flavours>>1&1]
		if len(ops) > 48 {
			ops = ops[:48]
		}
		pre, post := ops[:len(ops)/2], ops[len(ops)/2:]

		k := kernel.New(a, second)
		if first != second {
			k.Reflavour(first)
		}
		drive(t, k, pre)
		k.Reset()
		k.Resize(b)
		if first != second {
			k.Reflavour(second)
		}
		got := drive(t, k, post)
		want := drive(t, kernel.New(b, second), post)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%dGB→%dGB, max order %d→%d: resized kernel diverges from a new one:\nresized: %v\nnew:     %v",
				a>>30, b>>30, first, second, got, want)
		}
	})
}

// drive interprets ops as kernel operations on a fresh task, auditing the
// machine at the end, and returns what they observed: every allocation's
// PFN (or ^0 on failure), then the free-chunk count per order and the live
// kernel allocations. The low three bits of each byte select the
// operation, the high four bits a 1GB-aligned VA slot (and the kernel
// allocation order). Ops that do not apply to the slot's state are
// skipped.
func drive(t *testing.T, k *kernel.Kernel, ops []byte) []uint64 {
	t.Helper()
	const slots = 8
	task := k.NewTask("resize")
	sizes := [...]units.PageSize{units.Size4K, units.Size2M, units.Size1G}
	var mapped [slots]int // 1 + index into sizes; 0 empty, -1 demoted
	var kernelPfns, trace []uint64
	record := func(pfn uint64, err error) {
		if err != nil {
			pfn = ^uint64(0)
		}
		trace = append(trace, pfn)
	}
	for _, op := range ops {
		arg := int(op >> 4)
		slot := arg % slots
		va := uint64(slot+1) * units.Page1G
		switch op % 8 {
		case 0, 1, 2: // map 4K / 2M / 1G into an empty slot
			if mapped[slot] != 0 {
				continue
			}
			pfn, err := k.AllocMapped(task, va, sizes[op%8])
			record(pfn, err)
			if err == nil {
				mapped[slot] = int(op%8) + 1
			}
		case 3: // tear the slot down
			if mapped[slot] == 0 {
				continue
			}
			if err := k.UnmapRange(task, va, va+units.Page1G); err != nil {
				t.Fatalf("UnmapRange slot %d: %v", slot, err)
			}
			mapped[slot] = 0
		case 4: // demote a huge mapping
			if mapped[slot] < 2 {
				continue
			}
			if err := k.DemotePage(task, va); err != nil {
				t.Fatalf("DemotePage slot %d: %v", slot, err)
			}
			mapped[slot] = -1
		case 5, 6: // unmovable kernel allocation
			pfn, err := k.KernelAlloc(arg % 10)
			record(pfn, err)
			if err == nil {
				kernelPfns = append(kernelPfns, pfn)
			}
		case 7: // free the oldest kernel allocation
			if len(kernelPfns) == 0 {
				continue
			}
			if err := k.KernelFree(kernelPfns[0]); err != nil {
				t.Fatalf("KernelFree: %v", err)
			}
			kernelPfns = kernelPfns[1:]
		}
	}
	if err := audit.Check(audit.Machine{K: k}); err != nil {
		t.Fatalf("machine incoherent after ops %x: %v", ops, err)
	}
	for o := 0; o <= k.Buddy.MaxOrder(); o++ {
		trace = append(trace, k.Buddy.FreeChunks(o))
	}
	k.ForEachKernelAlloc(func(pfn uint64, order int) bool {
		trace = append(trace, pfn, uint64(order))
		return true
	})
	return trace
}
