package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	f := func(n uint32) bool {
		m := uint64(n%1000) + 1
		v := r.Uint64n(m)
		return v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// uint64nTwoDivisions is Uint64n's definition: reject every draw at or
// above MaxUint64 - MaxUint64%n, with the bound computed up front.
func uint64nTwoDivisions(r *Rand, n uint64) uint64 {
	bound := math.MaxUint64 - math.MaxUint64%n
	for {
		if v := r.Uint64(); v < bound {
			return v % n
		}
	}
}

// TestUint64nMatchesDefinition pins Uint64n's lazily computed rejection
// bound against the definition: the same values and the same number of
// draws, over bounds of every magnitude. Bounds above 2^63 reject about
// half their draws, so the slow path is taken often there.
func TestUint64nMatchesDefinition(t *testing.T) {
	ns := New(17)
	got, want := New(23), New(23)
	for i := 0; i < 20000; i++ {
		var n uint64
		switch i % 4 {
		case 0:
			n = ns.Uint64()%1000 + 1
		case 1:
			n = 1<<18 + ns.Uint64()%(1<<18)
		case 2:
			n = ns.Uint64() | 1<<63 // above 2^63
		default:
			n = ns.Uint64() >> (ns.Uint64() % 64)
			n = max(n, 1)
		}
		if g, w := got.Uint64n(n), uint64nTwoDivisions(want, n); g != w {
			t.Fatalf("call %d: Uint64n(%d) = %d, definition %d", i, n, g, w)
		}
		if got.state != want.state {
			t.Fatalf("call %d: Uint64n(%d) drew a different number of values", i, n)
		}
	}
	for _, n := range []uint64{1, 2, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64} {
		if g, w := got.Uint64n(n), uint64nTwoDivisions(want, n); g != w || got.state != want.state {
			t.Fatalf("Uint64n(%d) = %d, definition %d", n, g, w)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := trials / n
	for k, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d count %d deviates >20%% from %d", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) hit fraction %v", frac)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(13)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rand
	_ = r.Uint64() // must not panic
}
