package place

import (
	"fmt"

	"dmfb/internal/geom"
)

// ConflictAdjacency returns, for each module, the indices of the
// modules whose time spans overlap its own — the neighbours it must
// never share cells with. This is ConflictPairs in adjacency-list
// form, the shape the incremental cost kernel consumes.
func ConflictAdjacency(mods []Module) [][]int {
	adj := make([][]int, len(mods))
	for _, pr := range ConflictPairs(mods) {
		i, j := pr[0], pr[1]
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	return adj
}

// State wraps a Placement with incrementally maintained cost
// quantities, so a simulated-annealing move can be priced in O(degree)
// instead of rescanning every module and conflict pair:
//
//   - every module's occupied rectangle is cached, so a move reads its
//     neighbours' rectangles instead of re-deriving them from position,
//     orientation and footprint;
//   - the forbidden-overlap cell count (Placement.OverlapCells) is
//     kept as a running sum, adjusted per move over the moved module's
//     conflict adjacency list;
//   - the bounding box (Placement.BoundingBox) is maintained from
//     per-coordinate occupancy counts of module edges, so boundary
//     shrinks are found by a short scan instead of a full pass.
//
// Mark and Undo give an O(1)-per-module revert: Mark saves the scalar
// books (overlap and bounding box) and starts an undo log, and Undo
// puts back every module moved since, then restores the saved books
// instead of re-pricing the inverse moves.
//
// All bookkeeping is integer-exact: after any sequence of MoveModule
// and Undo calls, Overlap, BoundingBox and Rect equal the from-scratch
// values bit for bit (the differential tests assert this over long
// random move sequences). Mutate the placement only through
// MoveModule and Undo; positions must stay non-negative.
type State struct {
	P     *Placement
	adj   [][]int     // conflict adjacency lists, index-aligned with modules
	rects []geom.Rect // rects[i] == P.Rect(i)

	overlap int

	// Edge occupancy counts: loX[v] counts modules whose rectangle
	// starts at x = v, hiX[v] counts modules whose exclusive right
	// edge is at x = v; likewise for y. The bounding box is the span
	// between the extreme non-zero counts.
	loX, hiX, loY, hiY []int
	bbox               geom.Rect

	// Undo log: the books saved by Mark and, while marked, the prior
	// placement of each module moved since, in move order.
	marked       bool
	savedOverlap int
	savedBBox    geom.Rect
	undoLog      []undoEntry
}

// undoEntry is one module's placement before a logged move.
type undoEntry struct {
	i    int
	pos  geom.Point
	rot  bool
	rect geom.Rect
}

// NewState builds the incremental view of p, deriving every cached
// quantity from scratch. It panics if any module sits at a negative
// coordinate (the annealing placers clamp positions to the core area,
// so a negative position is a caller bug).
func NewState(p *Placement) *State {
	s := &State{P: p, adj: ConflictAdjacency(p.Modules), rects: make([]geom.Rect, len(p.Modules))}
	maxX, maxY := 1, 1
	for i := range p.Modules {
		r := p.Rect(i)
		if r.X < 0 || r.Y < 0 {
			panic(fmt.Sprintf("place: module %s at negative position %v",
				p.Modules[i].Name, r.Origin()))
		}
		s.rects[i] = r
		maxX = max(maxX, r.MaxX())
		maxY = max(maxY, r.MaxY())
	}
	s.loX = make([]int, maxX+1)
	s.hiX = make([]int, maxX+1)
	s.loY = make([]int, maxY+1)
	s.hiY = make([]int, maxY+1)
	for _, r := range s.rects {
		s.loX[r.X]++
		s.hiX[r.MaxX()]++
		s.loY[r.Y]++
		s.hiY[r.MaxY()]++
	}
	s.overlap = p.OverlapCells()
	s.bbox = p.BoundingBox()
	return s
}

// Overlap returns the cached forbidden-overlap cell count; it equals
// P.OverlapCells().
func (s *State) Overlap() int { return s.overlap }

// BoundingBox returns the cached bounding box; it equals
// P.BoundingBox().
func (s *State) BoundingBox() geom.Rect { return s.bbox }

// ArrayCells returns the cached bounding-array cell count; it equals
// P.ArrayCells().
func (s *State) ArrayCells() int { return s.bbox.Cells() }

// Rect returns module i's cached rectangle; it equals P.Rect(i).
func (s *State) Rect(i int) geom.Rect { return s.rects[i] }

// Adjacent returns module i's conflict adjacency list (do not mutate).
func (s *State) Adjacent(i int) []int { return s.adj[i] }

// MoveModule relocates module i to pos with orientation rot, updating
// the cached rectangle, overlap count and bounding box in
// O(degree + boundary scan). Calling it again with the previous
// position and orientation also reverts the move exactly — the
// incremental quantities are integers, so there is no drift — but
// Undo does so without re-pricing.
func (s *State) MoveModule(i int, pos geom.Point, rot bool) {
	p := s.P
	old := s.rects[i]
	if s.marked {
		s.undoLog = append(s.undoLog, undoEntry{i: i, pos: p.Pos[i], rot: p.Rot[i], rect: old})
	}
	p.Pos[i] = pos
	p.Rot[i] = rot
	now := p.Rect(i)
	if now.X < 0 || now.Y < 0 {
		panic(fmt.Sprintf("place: module %s moved to negative position %v",
			p.Modules[i].Name, pos))
	}
	s.rects[i] = now
	s.dropEdges(old)
	s.addEdges(now)
	for _, j := range s.adj[i] {
		r := s.rects[j]
		s.overlap += now.Intersect(r).Cells() - old.Intersect(r).Cells()
	}
	s.refitBBox(old, now)
}

// Mark saves the scalar books and starts logging moves, so a later
// Undo can revert every MoveModule made after this call. A new Mark
// discards the previous log: moves before it become permanent.
func (s *State) Mark() {
	s.marked = true
	s.savedOverlap, s.savedBBox = s.overlap, s.bbox
	s.undoLog = s.undoLog[:0]
}

// Undo reverts every MoveModule since the last Mark in O(1) per moved
// module: it puts back each module's position, orientation, rectangle
// and edge counts, newest first, then restores the books Mark saved.
// That is exact because the books are a function of the rectangles
// alone, which are now those Mark saw. Undo ends the mark; it panics
// without one.
func (s *State) Undo() {
	if !s.marked {
		panic("place: Undo without Mark")
	}
	for t := len(s.undoLog) - 1; t >= 0; t-- {
		e := s.undoLog[t]
		s.dropEdges(s.rects[e.i])
		s.addEdges(e.rect)
		s.P.Pos[e.i], s.P.Rot[e.i], s.rects[e.i] = e.pos, e.rot, e.rect
	}
	s.overlap, s.bbox = s.savedOverlap, s.savedBBox
	s.marked = false
	s.undoLog = s.undoLog[:0]
}

// dropEdges removes a rectangle's edge contributions.
func (s *State) dropEdges(r geom.Rect) {
	s.loX[r.X]--
	s.hiX[r.MaxX()]--
	s.loY[r.Y]--
	s.hiY[r.MaxY()]--
}

// addEdges records a rectangle's edge contributions, growing the
// coordinate count arrays when the rectangle extends past them.
func (s *State) addEdges(r geom.Rect) {
	if n := r.MaxX() + 1; n > len(s.loX) {
		s.loX = append(s.loX, make([]int, n-len(s.loX))...)
		s.hiX = append(s.hiX, make([]int, n-len(s.hiX))...)
	}
	if n := r.MaxY() + 1; n > len(s.loY) {
		s.loY = append(s.loY, make([]int, n-len(s.loY))...)
		s.hiY = append(s.hiY, make([]int, n-len(s.hiY))...)
	}
	s.loX[r.X]++
	s.hiX[r.MaxX()]++
	s.loY[r.Y]++
	s.hiY[r.MaxY()]++
}

// refitBBox re-derives the bounding box after one rectangle changed
// from old to now. Extremes that moved outward are adopted directly;
// extremes that may have retreated are rediscovered by scanning the
// edge counts inward from the previous boundary. Every scanned
// coordinate is backed by at least one module edge, so the scans
// terminate inside the array.
func (s *State) refitBBox(old, now geom.Rect) {
	b := s.bbox
	// Outward growth.
	if now.X < b.X {
		b = geom.Rect{X: now.X, Y: b.Y, W: b.MaxX() - now.X, H: b.H}
	}
	if now.Y < b.Y {
		b = geom.Rect{X: b.X, Y: now.Y, W: b.W, H: b.MaxY() - now.Y}
	}
	if now.MaxX() > b.MaxX() {
		b.W = now.MaxX() - b.X
	}
	if now.MaxY() > b.MaxY() {
		b.H = now.MaxY() - b.Y
	}
	// Inward shrink: only possible when the old rectangle defined the
	// boundary and no other module still holds it.
	if old.X == b.X && s.loX[b.X] == 0 {
		v := b.X
		for s.loX[v] == 0 {
			v++
		}
		b = geom.Rect{X: v, Y: b.Y, W: b.MaxX() - v, H: b.H}
	}
	if old.Y == b.Y && s.loY[b.Y] == 0 {
		v := b.Y
		for s.loY[v] == 0 {
			v++
		}
		b = geom.Rect{X: b.X, Y: v, W: b.W, H: b.MaxY() - v}
	}
	if old.MaxX() == b.MaxX() && s.hiX[b.MaxX()] == 0 {
		v := b.MaxX()
		for s.hiX[v] == 0 {
			v--
		}
		b.W = v - b.X
	}
	if old.MaxY() == b.MaxY() && s.hiY[b.MaxY()] == 0 {
		v := b.MaxY()
		for s.hiY[v] == 0 {
			v--
		}
		b.H = v - b.Y
	}
	s.bbox = b
}
