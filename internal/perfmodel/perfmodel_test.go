package perfmodel

import (
	"math"
	"testing"

	"repro/internal/units"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

// Calibration tests: the constants must reproduce the paper's §5.1.2 and §6
// absolute numbers.
func TestZeroFill1GMatchesPaper(t *testing.T) {
	ms := ZeroNs(units.Page1G) / 1e6
	if !approx(ms, 400, 0.02) {
		t.Errorf("1GB zero = %.1f ms, paper says ~400 ms", ms)
	}
}

func TestFault2MMatchesPaper(t *testing.T) {
	us := (FaultSetupNs(units.Size2M) + ZeroNs(units.Page2M)) / 1e3
	if !approx(us, 850, 0.03) {
		t.Errorf("2MB fault = %.0f µs, paper says ~850 µs", us)
	}
}

func TestPreZeroed1GFaultMatchesPaper(t *testing.T) {
	ms := FaultSetupNs(units.Size1G) / 1e6
	if !approx(ms, 2.7, 0.01) {
		t.Errorf("pre-zeroed 1GB fault = %.2f ms, paper says ~2.7 ms", ms)
	}
}

func TestCopyPromotionMatchesPaper(t *testing.T) {
	ms := CopyNs(units.Page1G) / 1e6
	if !approx(ms, 600, 0.05) {
		t.Errorf("1GB copy promotion = %.0f ms, paper says ~600 ms", ms)
	}
}

func TestBatchedExchangeMatchesPaper(t *testing.T) {
	us := (float64(HypercallNs) + 512*ExchangeBatchedNs) / 1e3
	if !approx(us, 500, 0.05) {
		t.Errorf("batched pv promotion = %.0f µs, paper says ~500 µs", us)
	}
}

func TestUnbatchedExchangeMatchesPaper(t *testing.T) {
	ms := (512 * (ExchangeUnbatchedNs + HypercallNs)) / 1e6
	if ms > 30.1 {
		t.Errorf("unbatched pv promotion = %.1f ms, paper says < 30 ms", ms)
	}
	if ms < 15 {
		t.Errorf("unbatched pv promotion = %.1f ms, implausibly fast", ms)
	}
}

func TestFaultSetupNsSizes(t *testing.T) {
	if FaultSetupNs(units.Size4K) != FaultSetup4KNs {
		t.Error("4K setup")
	}
	if FaultSetupNs(units.Size2M) != FaultSetup2MNs {
		t.Error("2M setup")
	}
	if FaultSetupNs(units.Size1G) != FaultSetup1GNs {
		t.Error("1G setup")
	}
}

func TestWalkCyclesPerAccess(t *testing.T) {
	s := TranslationStats{Accesses: 100, L2Hits: 10, Walks: 5, WalkMemAccesses: 20}
	want := (20.0*WalkAccessCycles + 10.0*L2TLBHitCycles) / 100.0
	if got := s.WalkCyclesPerAccess(); got != want {
		t.Errorf("WalkCyclesPerAccess = %v, want %v", got, want)
	}
	var empty TranslationStats
	if empty.WalkCyclesPerAccess() != 0 {
		t.Error("empty stats should give 0")
	}
}

func TestTranslationStatsAdd(t *testing.T) {
	a := TranslationStats{1, 2, 3, 4}
	a.Add(TranslationStats{10, 20, 30, 40})
	if a != (TranslationStats{11, 22, 33, 44}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestEvaluateMonotonicInWalks(t *testing.T) {
	w := WorkloadModel{BaseCyclesPerAccess: 8, Overlap: 0.6}
	low := w.Evaluate(TranslationStats{Accesses: 1000, WalkMemAccesses: 100}, 0)
	high := w.Evaluate(TranslationStats{Accesses: 1000, WalkMemAccesses: 1000}, 0)
	if high.CyclesPerAccess <= low.CyclesPerAccess {
		t.Error("more walk accesses must cost more cycles")
	}
	if high.WalkCycleFraction <= low.WalkCycleFraction {
		t.Error("more walk accesses must raise walk-cycle fraction")
	}
	if low.WalkCycleFraction < 0 || high.WalkCycleFraction > 1 {
		t.Error("fraction out of [0,1]")
	}
}

func TestEvaluateDaemonOverhead(t *testing.T) {
	w := WorkloadModel{BaseCyclesPerAccess: 10, Overlap: 1}
	s := TranslationStats{Accesses: 100, WalkMemAccesses: 50}
	p0 := w.Evaluate(s, 0)
	p1 := w.Evaluate(s, 0.1)
	if !approx(p1.CyclesPerAccess, p0.CyclesPerAccess*1.1, 1e-9) {
		t.Errorf("daemon overhead not applied: %v vs %v", p1.CyclesPerAccess, p0.CyclesPerAccess)
	}
}

func TestOverlapReducesExposure(t *testing.T) {
	s := TranslationStats{Accesses: 1000, WalkMemAccesses: 2000}
	full := WorkloadModel{BaseCyclesPerAccess: 8, Overlap: 1}.Evaluate(s, 0)
	half := WorkloadModel{BaseCyclesPerAccess: 8, Overlap: 0.5}.Evaluate(s, 0)
	if half.CyclesPerAccess >= full.CyclesPerAccess {
		t.Error("lower overlap must reduce exposed cycles")
	}
}

func TestCyclesToNs(t *testing.T) {
	if got := CyclesToNs(2300); !approx(got, 1000, 1e-9) {
		t.Errorf("2300 cycles at 2.3GHz = %v ns", got)
	}
}
