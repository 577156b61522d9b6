package kernel_test

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/kernel"
	"repro/internal/units"
)

// FuzzBootEquivalence pins kernel.Boot, the machine pool's contract: a
// kernel booted at one size and flavour, driven, Reset and booted again at
// another, three times over, must after each re-boot behave exactly as a
// kernel newly booted at that size and flavour — the same PFN for every
// allocation, the same free lists and unmovable chunks afterwards, and a
// clean audit (which includes Buddy.CheckInvariants). A chain of boots
// reaches states a single re-boot cannot: a shrink, then a flavour switch
// at that size, then a grow within capacity that reuses the free-bitmap
// words the switch left in spare capacity.
//
// sizes holds the four memory sizes (1–4GB) in its bit pairs, low pair
// first, and flavours the four flavours in its low four bits; ops is split
// in quarters, one per boot.
func FuzzBootEquivalence(f *testing.F) {
	// 4GB Trident with 1GB pages up to 3GB → shrunk to 2GB → switched to
	// stock → regrown to 3GB within capacity.
	f.Add(uint8(0x97), uint8(0x03), []byte{0x02, 0x12, 0x22, 0x05, 0x01, 0x11, 0x06, 0x13, 0x01, 0x11, 0x21, 0x07, 0x01, 0x12, 0x25, 0x31})
	f.Add(uint8(0xcc), uint8(0x05), []byte{0x01, 0x12, 0x06, 0x22, 0x35, 0x02, 0x16, 0x01, 0x21, 0x12, 0x02, 0x14})
	f.Add(uint8(0x55), uint8(0x0a), []byte{0x02, 0x12, 0x22, 0x03, 0x06, 0x16, 0x02, 0x12, 0x22, 0x32, 0x04, 0x24})
	f.Add(uint8(0x36), uint8(0x0c), []byte{0x04, 0x14, 0x24, 0x06, 0x01, 0x11, 0x21, 0x31, 0x05, 0x07, 0x16, 0x26})
	f.Fuzz(func(t *testing.T, sizes, flavours uint8, ops []byte) {
		orders := [2]int{units.StockMaxOrder, units.TridentMaxOrder}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		var k *kernel.Kernel
		for i := 0; i < 4; i++ {
			memBytes := uint64(sizes>>(2*i)&3+1) * units.Page1G
			maxOrder := orders[flavours>>i&1]
			phase := ops[i*len(ops)/4 : (i+1)*len(ops)/4]
			if k == nil {
				k = kernel.New(memBytes, maxOrder)
				drive(t, k, phase)
				continue
			}
			k.Reset()
			k.Boot(memBytes, maxOrder)
			got := drive(t, k, phase)
			want := drive(t, kernel.New(memBytes, maxOrder), phase)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("boot %d (%dGB, max order %d): re-booted kernel diverges from a new one:\nre-booted: %v\nnew:       %v",
					i, memBytes>>30, maxOrder, got, want)
			}
		}
	})
}

// drive interprets ops as kernel operations on a fresh task, auditing the
// machine at the end, and returns what they observed: every allocation's
// PFN (or ^0 on failure), then the free-chunk count per order and the live
// unmovable chunks (head PFN, order) in allocation order. The low three
// bits of each byte select the operation, the high four bits a 1GB-aligned
// VA slot (and the unmovable chunk's order). Ops that do not apply to the slot's state are
// skipped.
func drive(t *testing.T, k *kernel.Kernel, ops []byte) []uint64 {
	t.Helper()
	const slots = 8
	task := k.NewTask("boot")
	sizes := [...]units.PageSize{units.Size4K, units.Size2M, units.Size1G}
	var mapped [slots]int // 1 + index into sizes; 0 empty, -1 demoted
	type chunk struct {
		pfn   uint64
		order int
	}
	var unmovable []chunk
	var trace []uint64
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
			pfn, err := k.Buddy.Alloc(arg%10, true)
			record(pfn, err)
			if err == nil {
				unmovable = append(unmovable, chunk{pfn, arg % 10})
			}
		case 7: // free the oldest unmovable allocation
			if len(unmovable) == 0 {
				continue
			}
			k.Buddy.Free(unmovable[0].pfn, unmovable[0].order)
			unmovable = unmovable[1:]
		}
	}
	if err := audit.Check(audit.Machine{K: k}); err != nil {
		t.Fatalf("machine incoherent after ops %x: %v", ops, err)
	}
	for o := 0; o <= k.Buddy.MaxOrder(); o++ {
		trace = append(trace, k.Buddy.FreeChunks(o))
	}
	for _, c := range unmovable {
		trace = append(trace, c.pfn, uint64(c.order))
	}
	return trace
}
