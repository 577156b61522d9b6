package pagetable_test

import (
	"testing"

	"repro/internal/fragment"
	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/units"
)

// TestPageCacheHoldsNoTables pins the fragmenter's page cache as a file:
// after fragment.Apply on a 4GB machine at fig10-frag's settings (1/128
// of memory unmovable, 2.5GB left free), every task's page table costs
// exactly what an empty one does, summed structurally as
// TestLeafTableFootprint sums it. The cached pages are reverse-map owners
// only; mapped into a task's page table, the same cache holds ~8 MB of
// tables.
func TestPageCacheHoldsNoTables(t *testing.T) {
	k := kernel.New(4*units.Page1G, units.StockMaxOrder)
	f, err := fragment.Apply(k, fragment.Config{Seed: 3, UnmovableBytes: 32 * units.MiB, FreeBytes: 5 * units.Page1G / 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.HeldBytes() < units.Page1G {
		t.Fatalf("the page cache holds only %d bytes", f.HeldBytes())
	}
	empty, _ := pagetable.New().Footprint()
	for _, task := range k.Tasks() {
		if bytes, leaves := task.AS.PT.Footprint(); bytes != empty || leaves != 0 {
			t.Errorf("task %s holds %d B of page tables in %d leaf tables; an empty table costs %d B",
				task.Name, bytes, leaves, empty)
		}
	}
}
