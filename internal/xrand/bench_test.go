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
