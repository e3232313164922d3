package core

import (
	"math/rand"

	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// kernelMove is one Section 4(b) perturbation in move form: up to two
// module relocations (one for the displacement families, two for the
// interchange families). A rejected move is undone in place from the
// books Delta saved, so the move need not carry its inverse.
type kernelMove struct {
	n   int // 1 or 2 relocations
	idx [2]int
	pos [2]geom.Point
	rot [2]bool
}

// kernelCounters tallies the incremental kernel's work for the
// telemetry registry.
type kernelCounters struct {
	proposed  int64 // moves proposed
	committed int64 // moves committed (accepted)
	reverted  int64 // moves reverted (rejected)
	deltaEval int64 // incremental (delta) cost evaluations
	scratch   int64 // from-scratch cost constructions
}

// moveKernel prices the annealing placers' moves incrementally. It
// owns a place.State (rectangles, overlap and bounding box in
// O(degree) per move), an optional fti.Incremental (stage 2 only), and
// a running obstacle-hit count, and derives the cost from those
// integer quantities with exactly the floating-point expression the
// clone-based placer used — so a move-based run replays a clone-based
// run bit for bit. Delta saves the books (State.Mark and the hit
// count) and Revert restores them, so a rejected move costs O(1) per
// moved module to undo.
type moveKernel struct {
	prob       Problem
	o          Options
	beta       float64
	useFTI     bool
	singleOnly bool

	st        *place.State
	inc       *fti.Incremental
	hits      int // (module, obstacle) incidences, maintained per move
	savedHits int // hits before the staged move, restored by Revert

	cost    float64 // committed cost
	pending float64 // staged cost, adopted by Commit

	mv kernelMove // the one move Propose fills and hands out by pointer

	dirty    []int  // scratch: modules invalidated by the staged move
	dirtyIn  []bool // scratch: dedup marks, index-aligned with modules
	counters kernelCounters
}

// newMoveKernel builds the kernel around p (which it will mutate) and
// derives the initial cost from scratch.
func newMoveKernel(p *place.Placement, prob Problem, o Options, beta float64, useFTI, singleOnly bool) *moveKernel {
	k := &moveKernel{
		prob:       prob,
		o:          o,
		beta:       beta,
		useFTI:     useFTI,
		singleOnly: singleOnly,
		st:         place.NewState(p),
		dirtyIn:    make([]bool, len(p.Modules)),
	}
	if useFTI {
		k.inc = fti.NewIncremental(p)
	}
	k.hits = prob.obstacleHits(p)
	k.cost = k.costNow()
	k.counters.scratch++
	return k
}

// Cost returns the committed cost in O(1).
func (k *moveKernel) Cost() float64 { return k.cost }

// Snapshot clones the current placement for best-state tracking.
func (k *moveKernel) Snapshot() *place.Placement { return k.st.P.Clone() }

// costNow evaluates the cost of the current (possibly staged) state
// from the kernel's integer books, with the same expression and
// operation order as the clone-based cost functions (AnnealArea's cost
// closure and ftCost), so the floats are bit-identical.
func (k *moveKernel) costNow() float64 {
	c := float64(k.st.ArrayCells()) + k.o.OverlapPenalty*float64(k.st.Overlap())
	if len(k.prob.Obstacles) > 0 {
		c += k.o.OverlapPenalty * float64(k.hits)
	}
	if k.useFTI && k.st.Overlap() == 0 {
		c -= k.beta * (float64(k.inc.Covered()) / float64(k.inc.Total()))
	}
	return c
}

// Propose generates a Section 4(b) move. It consumes the RNG in
// exactly the order the clone-based neighbor function did, so seeded
// runs stay reproducible across the refactor. The returned move is
// the kernel's own and is overwritten by the next Propose.
func (k *moveKernel) Propose(T float64, rng *rand.Rand) *kernelMove {
	p := k.st.P
	n := len(p.Modules)
	span := k.prob.MaxW
	if k.prob.MaxH > span {
		span = k.prob.MaxH
	}
	w := window(T, k.o.WindowT0, span)

	m := &k.mv
	if k.singleOnly || n < 2 || rng.Float64() < k.o.PSingle {
		// Move types (i)/(ii): displace one module within the window,
		// possibly changing its orientation.
		i := rng.Intn(n)
		m.n = 1
		m.idx[0] = i
		rot := p.Rot[i]
		if rng.Intn(2) == 0 && rotatable(p.Modules[i], k.prob) {
			rot = !rot
		}
		dx := rng.Intn(2*w+1) - w
		dy := rng.Intn(2*w+1) - w
		m.rot[0] = rot
		m.pos[0] = clampPos(p.Pos[i].Add(geom.Point{X: dx, Y: dy}),
			sizeOf(p.Modules[i], rot), k.prob)
	} else {
		// Move types (iii)/(iv): interchange a pair, possibly rotating
		// one of the two.
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		m.n = 2
		m.idx[0], m.idx[1] = i, j
		m.rot[0], m.rot[1] = p.Rot[i], p.Rot[j]
		if rng.Intn(2) == 0 {
			t := 0
			if rng.Intn(2) == 0 {
				t = 1
			}
			if rotatable(p.Modules[m.idx[t]], k.prob) {
				m.rot[t] = !m.rot[t]
			}
		}
		m.pos[0] = clampPos(p.Pos[j], sizeOf(p.Modules[i], m.rot[0]), k.prob)
		m.pos[1] = clampPos(p.Pos[i], sizeOf(p.Modules[j], m.rot[1]), k.prob)
	}
	k.counters.proposed++
	return m
}

func sizeOf(m place.Module, rot bool) geom.Size {
	if rot {
		return m.Size.Transpose()
	}
	return m.Size
}

// Delta stages m — saving the books, then mutating the placement, the
// incremental state and the FTI caches — and returns the exact cost
// change.
func (k *moveKernel) Delta(m *kernelMove) float64 {
	k.st.Mark()
	k.savedHits = k.hits
	for t := 0; t < m.n; t++ {
		i := m.idx[t]
		if len(k.prob.Obstacles) > 0 {
			k.hits -= coversObstacleCount(k.prob.Obstacles, k.st.Rect(i))
		}
		k.st.MoveModule(i, m.pos[t], m.rot[t])
		if len(k.prob.Obstacles) > 0 {
			k.hits += coversObstacleCount(k.prob.Obstacles, k.st.Rect(i))
		}
	}
	if k.useFTI {
		k.inc.Apply(k.st.BoundingBox(), k.dirtySet(m))
	}
	k.pending = k.costNow()
	k.counters.deltaEval++
	return k.pending - k.cost
}

// Commit finalises the staged move.
func (k *moveKernel) Commit(m *kernelMove) {
	if k.useFTI {
		k.inc.Commit()
	}
	k.cost = k.pending
	k.counters.committed++
}

// Revert undoes the staged move exactly: the moved modules go back
// and the books Delta saved are restored, with no re-pricing.
func (k *moveKernel) Revert(m *kernelMove) {
	if k.useFTI {
		k.inc.Revert()
	}
	k.st.Undo()
	k.hits = k.savedHits
	k.counters.reverted++
}

// dirtySet returns the deduplicated FTI-invalidation set of m: the
// moved modules plus their span-conflict neighbours.
func (k *moveKernel) dirtySet(m *kernelMove) []int {
	k.dirty = k.dirty[:0]
	add := func(i int) {
		if !k.dirtyIn[i] {
			k.dirtyIn[i] = true
			k.dirty = append(k.dirty, i)
		}
	}
	for t := 0; t < m.n; t++ {
		add(m.idx[t])
		for _, j := range k.st.Adjacent(m.idx[t]) {
			add(j)
		}
	}
	for _, i := range k.dirty {
		k.dirtyIn[i] = false
	}
	return k.dirty
}

// coversObstacleCount counts the obstacle cells r covers.
func coversObstacleCount(obstacles []geom.Point, r geom.Rect) int {
	n := 0
	for _, o := range obstacles {
		if r.Contains(o) {
			n++
		}
	}
	return n
}

// flushMetrics publishes the kernel's counters to the registry (no-op
// for a nil registry), tagged with the placement stage.
func (k *moveKernel) flushMetrics(reg *telemetry.Registry, stage string) {
	if reg == nil {
		return
	}
	c := k.counters
	reg.Counter("place." + stage + ".moves_proposed").Add(c.proposed)
	reg.Counter("place." + stage + ".moves_committed").Add(c.committed)
	reg.Counter("place." + stage + ".moves_reverted").Add(c.reverted)
	reg.Counter("place." + stage + ".delta_evals").Add(c.deltaEval)
	reg.Counter("place." + stage + ".scratch_evals").Add(c.scratch)
	if k.inc != nil {
		evals, hits := k.inc.Stats()
		reg.Counter("place.fti.module_evals").Add(evals)
		reg.Counter("place.fti.cache_hits").Add(hits)
		if evals+hits > 0 {
			reg.Gauge("place.fti.cache_hit_rate").Set(float64(hits) / float64(evals+hits))
		}
	}
}
