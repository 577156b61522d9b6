package workload

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/stream"
	"repro/internal/units"
)

// BenchmarkInstanceNext measures one access-stream draw — segment selection
// through the flat offset index plus the per-segment pattern — on a
// representative hot/cold workload at test scale.
func BenchmarkInstanceNext(b *testing.B) {
	spec, ok := ByName("XSBench")
	if !ok {
		b.Fatal("unknown workload XSBench")
	}
	k := kernel.New(8*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("bench")
	inst, err := spec.Instantiate(k, task, fault.NewBase4K(k), 1, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		va, _ := inst.Next()
		sink += va
	}
	_ = sink
}

// BenchmarkNextRuns measures the run-coalescing draw path — the producer
// stage of the run-coalesced translation pipeline: precompiled draws plus
// the per-reference page comparison. Uniform workloads coalesce almost
// nothing (runs of length 1), so this bench is dominated by the draw loop
// itself. Reported per batch of 2000 references (the sim loop's batch
// size), so ns/op ÷ 2000 is the steady-state per-draw cost.
func BenchmarkNextRuns(b *testing.B) {
	spec, ok := ByName("GUPS")
	if !ok {
		b.Fatal("unknown workload GUPS")
	}
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("bench")
	inst, err := spec.Instantiate(k, task, fault.NewTHP(k), 42, testScale)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]stream.Run, 0, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.NextRuns(buf, 2000)
	}
}
