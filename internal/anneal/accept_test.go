package anneal

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// runMovesReference is RunMoves as it was before the acceptance cache,
// kept verbatim (minus the Observer calls, which the test does not
// use): every uphill move calls math.Exp(-dC/T) afresh.
func runMovesReference[S, M any](p MoveProblem[S, M], sched Schedule, rng *rand.Rand) Result[S] {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("anneal: nil rng")
	}
	maxLevels := sched.MaxLevels
	if maxLevels == 0 {
		maxLevels = 1000
	}

	curCost := p.Cost()
	best := p.Snapshot()
	bestCost := curCost
	res := Result[S]{Evaluations: 1}

	T := sched.T0
	for level := 0; level < maxLevels; level++ {
		l := Level{Index: level, T: T}
		levelStart := time.Now()
		for i := 0; i < sched.Iters; i++ {
			m := p.Propose(T, rng)
			dC := p.Delta(m)
			res.Evaluations++
			l.Proposed++
			if dC < 0 || rng.Float64() < math.Exp(-dC/T) {
				p.Commit(m)
				curCost = p.Cost()
				l.Accepted++
				if dC < 0 {
					l.Improved++
				}
				if curCost < bestCost {
					best = p.Snapshot()
					bestCost = curCost
				}
			} else {
				p.Revert(m)
			}
		}
		l.BestCost = bestCost
		l.CurCost = curCost
		l.Duration = time.Since(levelStart)
		res.Levels = append(res.Levels, l)
		if p.Stop != nil && p.Stop(l) {
			break
		}
		T *= sched.Alpha
	}
	res.Best = best
	res.BestCost = bestCost
	return res
}

// quarterWalk is a toy MoveProblem whose cost is |q|/4 for an integer
// q, so its deltas mix zero, small integers, integers past the
// acceptance cache (up to 5000), quarter fractions and downhill moves.
type quarterWalk struct {
	q, staged int
}

// quarterSteps are the proposed changes of q, in quarter cost units.
var quarterSteps = []int{0, 4, 8, 12, 40, 400, 4 * 1023, 4 * 1024, 4 * 5000, 1, 2, 3, 6, 11, -4, -8, -1, -2, -400}

func (w *quarterWalk) problem() MoveProblem[int, int] {
	cost := func(q int) float64 { return math.Abs(float64(q)) / 4 }
	return MoveProblem[int, int]{
		Cost: func() float64 { return cost(w.q) },
		Propose: func(_ float64, rng *rand.Rand) int {
			return quarterSteps[rng.Intn(len(quarterSteps))]
		},
		Delta: func(dq int) float64 {
			w.staged = w.q + dq
			return cost(w.staged) - cost(w.q)
		},
		Commit:   func(int) { w.q = w.staged },
		Revert:   func(int) {},
		Snapshot: func() int { return w.q },
	}
}

// TestAcceptCacheBitIdentical runs the toy walk through RunMoves and
// through the reference loop from identically seeded RNGs, over
// schedules cold enough that cached probabilities underflow to 0, and
// asserts identical level books, evaluation counts, best cost and the
// next value the RNG draws.
func TestAcceptCacheBitIdentical(t *testing.T) {
	for _, sched := range []Schedule{
		{T0: 2000, Alpha: 0.8, Iters: 400, MaxLevels: 60},
		{T0: 3, Alpha: 0.5, Iters: 300, MaxLevels: 30},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			start := int(seed) * 4001
			got, want := &quarterWalk{q: start}, &quarterWalk{q: start}
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			g := RunMoves(got.problem(), sched, rngGot)
			w := runMovesReference(want.problem(), sched, rngWant)

			if len(g.Levels) != len(w.Levels) {
				t.Fatalf("T0 %v seed %d: %d levels, reference %d", sched.T0, seed, len(g.Levels), len(w.Levels))
			}
			for i := range g.Levels {
				gl, wl := g.Levels[i], w.Levels[i]
				gl.Duration, wl.Duration = 0, 0
				if gl != wl {
					t.Fatalf("T0 %v seed %d level %d: %+v, reference %+v", sched.T0, seed, i, gl, wl)
				}
			}
			if g.Evaluations != w.Evaluations || g.BestCost != w.BestCost || g.Best != w.Best {
				t.Fatalf("T0 %v seed %d: evals %d best %v (%d), reference %d %v (%d)", sched.T0, seed,
					g.Evaluations, g.BestCost, g.Best, w.Evaluations, w.BestCost, w.Best)
			}
			if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
				t.Fatalf("T0 %v seed %d: next draw %d, reference %d", sched.T0, seed, a, b)
			}
		}
	}
}

// TestAcceptCacheProb checks the cache returns math.Exp(-dC/T) bit for
// bit on both sides of its range, on repeated lookups, after a reset
// to a new T, and for values that must bypass it.
func TestAcceptCacheProb(t *testing.T) {
	var c acceptCache
	ds := []float64{0, math.Copysign(0, -1), 1, 2, 37, 1023, 1024, 5000, 0.5, 1022.75,
		-1, 1e300, math.Inf(1), math.NaN(), math.MaxInt64}
	for _, T := range []float64{10000, 7.5, 0.3, 1e-3} {
		c.reset()
		for pass := 0; pass < 2; pass++ {
			for _, d := range ds {
				got, want := c.prob(d, T), math.Exp(-d/T)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("T %v pass %d: prob(%v) = %v, math.Exp %v", T, pass, d, got, want)
				}
			}
		}
	}
}
