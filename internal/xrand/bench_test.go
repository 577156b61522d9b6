package xrand

import "testing"

// BenchmarkUint64n pins the base generator's cost for comparison.
func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(1 << 30)
	}
	_ = sink
}

// BenchmarkUint64nVarying draws with a bound that is not a compile-time
// constant, around 2^18, the shape of the fragmenter's reclaim (one Intn
// per reclaimed page over a region's held list).
func BenchmarkUint64nVarying(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(1<<18 - uint64(i&1023))
	}
	_ = sink
}
