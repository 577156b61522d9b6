package main

import (
	"encoding/binary"
	"syscall"
	"time"
)

// The calibration loop is a fixed amount of benchmark-owned work timed
// before every iteration: a dependent integer chain (ALU speed) and a
// dependent pointer chase through a ring larger than a core's caches
// (memory latency and our share of the shared last-level cache), sized to
// take about equal time. Shared hosts drift by ±15% over minutes as
// neighbours come and go. Each part alone tracks the simulator's speed
// through that drift to within 4–6%; the two together track it to about
// 1%, so timings are reported scaled by calibRefMs over the run's median
// calibration time: in reference-box units.
const (
	calibChainSteps = 4_000_000
	calibChaseSteps = 60_000
	calibRingBytes  = 64 << 20
	// calibRefMs is the loop's median time on the reference box (2-vCPU
	// Xeon with a 105 MiB L3, quiet), so scaled timings read as that
	// box's seconds.
	calibRefMs = 16.0
)

// calibrator owns the chase ring. The ring is mapped outside the Go heap,
// so it does not change when the program's garbage collector runs, and it
// is written in full up front and stays resident, so peak RSS discounts it
// exactly.
type calibrator struct {
	ring []byte
	sink uint64
}

func newCalibrator() (*calibrator, error) {
	ring, err := syscall.Mmap(-1, 0, calibRingBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// Slot i holds its successor under a full-period linear congruential
	// map (c odd, a ≡ 1 mod 4, modulus a power of two): one cycle through
	// every slot, in an order no prefetcher follows.
	const n = calibRingBytes / 4
	for i := uint64(0); i < n; i++ {
		binary.LittleEndian.PutUint32(ring[4*i:], uint32((i*2862933555777941757+3037000493)%n))
	}
	return &calibrator{ring: ring}, nil
}

// run times the loop once, in ms.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibChainSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	idx := uint32(0)
	for i := 0; i < calibChaseSteps; i++ {
		idx = binary.LittleEndian.Uint32(c.ring[4*uint64(idx):])
	}
	c.sink += x ^ uint64(idx)
	return ms(time.Since(t0))
}

func (c *calibrator) close() error { return syscall.Munmap(c.ring) }

// calibScale is the factor that converts a run's timings to reference-box
// units: calibRefMs over the median of the run's calibration samples.
func calibScale(rs []*childResult) float64 {
	var xs []float64
	for _, r := range rs {
		for _, it := range r.Iters {
			xs = append(xs, it.CalibMs)
		}
	}
	return ratio(calibRefMs, median(xs))
}
