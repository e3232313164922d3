package main

import (
	"sort"
	"time"
)

// The calibration kernel: sorting a fixed pseudo-random slice with the
// standard library. On a shared 2-CPU host a fixed loop of PCR
// compiles drifts by 15-25% over several-second stretches while this
// kernel drifts with it (a sha256 loop does not), so scaling each
// measured window by the kernel rounds around it removes most of the
// host drift. The kernel depends on nothing in the repository, so no
// program change can move it; do not change it either, or scaled
// numbers stop being comparable with earlier records.
const (
	calibInts   = 40000
	calibSorts  = 2
	calibRefMS  = 8.0 // nominal round time on the reference host
	calibLCGMul = 6364136223846793005
	calibLCGInc = 1442695040888963407
)

// calibSmoothMS is how far around a window calibration rounds join
// the median that scales it: single rounds jitter by several percent,
// while the drift they track lasts seconds.
const calibSmoothMS = 2000

// calibFreshMS is how old the last round may be and still open the
// next window; an older one is followed by a fresh round first.
const calibFreshMS = 50

// calibrator runs calibration rounds and keeps their times.
type calibrator struct {
	t0       time.Time
	src, buf []int
	rounds   []float64 // ms per round, in run order
	at       []float64 // ms from t0 to each round's midpoint
}

// calWindow is the span of one measured window, in ms from the
// calibrator's start.
type calWindow struct{ From, To float64 }

func newCalibrator() *calibrator {
	c := &calibrator{t0: time.Now(), src: make([]int, calibInts), buf: make([]int, calibInts)}
	x := uint64(1)
	for i := range c.src {
		x = x*calibLCGMul + calibLCGInc
		c.src[i] = int(x >> 1)
	}
	return c
}

func (c *calibrator) now() float64 { return msSince(c.t0) }

// round runs the kernel once and records its time in milliseconds.
func (c *calibrator) round() {
	start := c.now()
	for i := 0; i < calibSorts; i++ {
		copy(c.buf, c.src)
		sort.Ints(c.buf)
	}
	end := c.now()
	c.rounds = append(c.rounds, end-start)
	c.at = append(c.at, (start+end)/2)
}

// window runs f between two calibration rounds and returns its span,
// the handle factor scales f's timings by.
func (c *calibrator) window(f func()) calWindow {
	if n := len(c.at); n == 0 || c.now()-c.at[n-1]-c.rounds[n-1]/2 > calibFreshMS {
		c.round()
	}
	w := calWindow{From: c.now()}
	f()
	w.To = c.now()
	c.round()
	return w
}

// factor is the scale for timings taken in window w: see scaleFactor,
// over the median round within calibSmoothMS of w. It is final once
// the rounds after w are in.
func (c *calibrator) factor(w calWindow) float64 {
	var near []float64
	for i, at := range c.at {
		if at >= w.From-calibSmoothMS && at <= w.To+calibSmoothMS {
			near = append(near, c.rounds[i])
		}
	}
	return scaleFactor(median(near))
}

// scaleFactor converts a time measured while the kernel took roundMS
// into reference-host time: the host ran roundMS/calibRefMS times
// slower than nominal, so the measurement is divided by that ratio.
func scaleFactor(roundMS float64) float64 { return calibRefMS / roundMS }

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
