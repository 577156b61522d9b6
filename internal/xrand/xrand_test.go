package xrand

import (
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
