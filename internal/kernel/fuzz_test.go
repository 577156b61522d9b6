package kernel_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/kernel"
	"repro/internal/units"
)

// FuzzKernelOpsAudit drives random sequences of kernel operations — maps of
// every page size, unmaps, range unmaps with demotion, frame exchanges,
// unmovable kernel chunks from the buddy — under a seed-driven chaos injector forcing
// buddy-allocation failures, and runs the whole-machine invariant auditor
// after every operation. Any operation sequence that leaves the page
// tables, reverse map, region counters (unmovable frames among them) and
// buddy free lists disagreeing is a bug, regardless of whether it also misbehaves.
//
// The byte stream is interpreted op by op: the low three bits select the
// operation, the high four bits select the 1GB-aligned VA slot (and
// secondary argument). Ops that do not apply to the slot's current state
// are skipped, so every generated sequence is legal by construction and
// the only accepted failures are injected or genuine out-of-memory ones.
func FuzzKernelOpsAudit(f *testing.F) {
	f.Add(uint64(1), []byte{0x01, 0x12, 0x23, 0x04, 0x15, 0x03, 0x26, 0x07})
	f.Add(uint64(7), []byte{0x22, 0x32, 0x25, 0x34, 0x33, 0x23, 0x06, 0x16, 0x07, 0x17})
	f.Add(uint64(42), []byte{0x02, 0x04, 0x03, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		// 1GB of physical memory keeps the per-op audit (O(frames)) cheap
		// enough for useful fuzz throughput while still allowing one live
		// 1GB mapping alongside smaller ones.
		const slots = 6
		k := kernel.New(1*units.Page1G, units.TridentMaxOrder)
		inj := chaos.New(chaos.Config{Seed: seed, BuddyFailRate: 0.3})
		k.Buddy.FailAlloc = inj.BuddyAllocFails
		task := k.NewTask("fuzz")

		type state int
		const (
			empty state = iota
			map4K
			map2M
			map1G
			shattered // demoted: the slot holds many sub-mappings
		)
		sizeOf := map[state]units.PageSize{
			map4K: units.Size4K, map2M: units.Size2M, map1G: units.Size1G,
		}
		vaOf := func(i int) uint64 { return uint64(i+1) * units.Page1G }
		var st [slots]state
		type chunk struct {
			pfn   uint64
			order int
		}
		var unmovable []chunk

		if len(ops) > 24 {
			ops = ops[:24]
		}
		for _, b := range ops {
			arg := int(b >> 4)
			slot := arg % slots
			va := vaOf(slot)
			switch op := b % 8; op {
			case 0, 1, 2: // map 4K / 2M / 1G into an empty slot
				if st[slot] != empty {
					continue
				}
				want := []state{map4K, map2M, map1G}[op]
				if _, err := k.AllocMapped(task, va, sizeOf[want]); err == nil {
					st[slot] = want
				}
			case 3: // tear the slot down
				switch st[slot] {
				case map4K, map2M, map1G:
					if err := k.UnmapFree(task, va, sizeOf[st[slot]]); err != nil {
						t.Fatalf("UnmapFree slot %d: %v", slot, err)
					}
				case shattered:
					if err := k.UnmapRange(task, va, va+units.Page1G); err != nil {
						t.Fatalf("UnmapRange slot %d: %v", slot, err)
					}
				default:
					continue
				}
				st[slot] = empty
			case 4: // demote a huge mapping in place
				if st[slot] != map2M && st[slot] != map1G {
					continue
				}
				if err := k.DemotePage(task, va); err != nil {
					t.Fatalf("DemotePage slot %d: %v", slot, err)
				}
				st[slot] = shattered
			case 5: // exchange frames between two same-size mappings
				other := (slot + 1 + arg/slots) % slots
				if other == slot || st[slot] != st[other] || sizeOf[st[slot]] == 0 {
					continue
				}
				if err := k.ExchangeFrames(task, va, task, vaOf(other), sizeOf[st[slot]]); err != nil {
					t.Fatalf("ExchangeFrames %d<->%d: %v", slot, other, err)
				}
			case 6: // unmovable kernel allocation
				if pfn, err := k.Buddy.Alloc(arg%4, true); err == nil {
					unmovable = append(unmovable, chunk{pfn, arg % 4})
				}
			case 7: // free the oldest unmovable allocation
				if len(unmovable) == 0 {
					continue
				}
				k.Buddy.Free(unmovable[0].pfn, unmovable[0].order)
				unmovable = unmovable[1:]
			}
			if err := audit.Check(audit.Machine{K: k}); err != nil {
				t.Fatalf("machine incoherent after op %#02x (injections so far: %d): %v",
					b, inj.S.Total(), err)
			}
		}
	})
}
