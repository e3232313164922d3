// Package fti computes the paper's fault tolerance index (Section 5.2)
// and the underlying per-cell C-coverage. Section 5.3 answers the
// per-cell relocation question by mining maximal empty rectangles;
// this package answers the same question exactly with a word-level
// feasible-site intersection (see ComputeOn), and keeps the paper's
// procedure and an exhaustive search as test oracles.
//
// For a configuration C on an m×n array, a cell is C-covered if
//
//   - no module uses it, or
//   - every module that uses it can be relocated by partial
//     reconfiguration: after temporarily removing the module and
//     marking the faulty cell occupied, some set of contiguous free
//     cells (equivalently, some maximal empty rectangle) accommodates
//     the module's footprint in either orientation.
//
// FTI = (#C-covered cells) / (m·n) ∈ [0, 1]. FTI = 1 means any single
// faulty cell can be bypassed by partial reconfiguration; FTI = 0
// means no faulty cell can.
//
// The combined placement of the paper's "modified 2-D placement" lets
// a cell belong to several modules with pairwise-disjoint time spans;
// such a cell is covered only if every one of those modules is
// relocatable within its own time slice (obstacles are the modules
// whose spans overlap the failing module's span).
package fti

import (
	"fmt"
	"math/bits"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
	"dmfb/internal/place"
)

// Result reports the fault-tolerance analysis of a placement.
type Result struct {
	Array   geom.Rect // the array the index is computed over
	Covered int       // number of C-covered cells
	Total   int       // m·n
	// CoveredMap[y*Array.W+x] reports whether the array cell at
	// array-local coordinates (x, y) is C-covered.
	CoveredMap []bool
	// ModuleRelocatable[i] reports whether module i can be relocated
	// for at least one faulty cell within it; a module that is not
	// relocatable for any of its cells makes all its cells uncovered.
	ModuleRelocatable []bool
}

// FTI returns the fault tolerance index k/(m·n).
func (r Result) FTI() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Total)
}

// CoveredAt reports whether the array cell at array-local (x, y) is
// C-covered.
func (r Result) CoveredAt(x, y int) bool {
	if x < 0 || x >= r.Array.W || y < 0 || y >= r.Array.H {
		return false
	}
	return r.CoveredMap[y*r.Array.W+x]
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("FTI %.4f (%d/%d cells C-covered on %dx%d array)",
		r.FTI(), r.Covered, r.Total, r.Array.W, r.Array.H)
}

// Compute analyses the placement on the smallest array containing it
// (its bounding box), the array a designer would fabricate for it.
func Compute(p *place.Placement) Result {
	return ComputeOn(p, p.BoundingBox())
}

// ComputeOn analyses the placement on an explicit array. Modules are
// clipped to the array; cells outside the array do not exist.
//
// The per-module test is the feasible-site intersection of Section 5.3's
// relocation question: with M removed and the modules active during M's
// span as obstacles, let P be the set of free footprint sites for M in
// either orientation. A faulty cell f of M defeats relocation exactly
// when every site in P covers f, i.e. when P is empty or f ∈ ∩P. The
// intersection of axis-aligned rectangles is a rectangle, so each
// module's uncovered cells form one rectangle, found by a word-level
// scan of the occupancy matrix (see moduleEval.eval).
func ComputeOn(p *place.Placement, array geom.Rect) Result {
	if array.Empty() {
		// No cells: nothing to cover and nowhere to relocate to.
		return Result{Array: array, CoveredMap: []bool{}, ModuleRelocatable: make([]bool, len(p.Modules))}
	}
	res := Result{
		Array:             array,
		Total:             array.Cells(),
		CoveredMap:        make([]bool, array.Cells()),
		ModuleRelocatable: make([]bool, len(p.Modules)),
	}
	// Start from "every cell covered" and knock out the cells of
	// non-relocatable modules.
	for i := range res.CoveredMap {
		res.CoveredMap[i] = true
	}

	e := newModuleEval(array)
	for mi := range p.Modules {
		a := e.eval(p, mi)
		for y := a.uncovered.Y; y < a.uncovered.MaxY(); y++ {
			for x := a.uncovered.X; x < a.uncovered.MaxX(); x++ {
				res.CoveredMap[y*array.W+x] = false
			}
		}
		res.ModuleRelocatable[mi] = a.reloc
	}

	for _, c := range res.CoveredMap {
		if c {
			res.Covered++
		}
	}
	return res
}

// moduleEval holds the reusable scratch buffers of the per-module
// relocatability test: the occupancy grid of the array and one
// run-start mask row per grid row. One instance serves any number of
// evaluations on the same array.
type moduleEval struct {
	array geom.Rect
	g     *grid.Grid
	runs  []uint64
}

func newModuleEval(array geom.Rect) *moduleEval {
	return &moduleEval{array: array, g: grid.New(array.W, array.H)}
}

// analysis is one module's relocatability analysis: the array-local
// rectangle of its cells that defeat relocation, and whether any of
// its cells is relocatable.
type analysis struct {
	uncovered geom.Rect
	reloc     bool
}

// eval analyses module mi on the configuration during its time span
// with mi removed. Its uncovered cells are its clipped cells ∩ ∩P, or
// all of them when no site exists.
func (e *moduleEval) eval(p *place.Placement, mi int) analysis {
	m := p.Modules[mi]
	cells := p.Rect(mi).Intersect(e.array).Translate(-e.array.X, -e.array.Y)
	if cells.Empty() {
		return analysis{}
	}
	p.FillOccupancyDuring(e.g, e.array, m.Span, mi)
	uncov, ok := e.siteIntersection(m.Size, cells)
	// Once one orientation's sites leave no cell uncovered, the other
	// orientation can only shrink the intersection further.
	if !m.Size.IsSquare() && !(ok && uncov.Empty()) {
		t, tok := e.siteIntersection(m.Size.Transpose(), cells)
		switch {
		case tok && ok:
			uncov = uncov.Intersect(t)
		case tok:
			uncov, ok = t, true
		}
	}
	if !ok {
		return analysis{uncovered: cells}
	}
	return analysis{uncov, uncov.Cells() < cells.Cells()}
}

// siteIntersection intersects clip with every free s.W×s.H site of
// the grid, and reports false when there is no site. Row y's run-start
// mask has bit x set iff cells x..x+s.W-1 of row y are free (the free
// row shift-ANDed s.W-1 times); ANDing s.H consecutive masks gives the
// origins of the sites in that origin row. With origins spanning
// [x0,x1]×[y0,y1], every site contains [x1, x0+s.W)×[y1, y0+s.H), and
// nothing outside it is in all of them. The scan stops as soon as that
// running intersection misses clip.
func (e *moduleEval) siteIntersection(s geom.Size, clip geom.Rect) (geom.Rect, bool) {
	gw, gh, wpr := e.g.W(), e.g.H(), e.g.WordsPerRow()
	if s.W > gw || s.H > gh {
		return geom.Rect{}, false
	}
	words := e.g.Words()
	if cap(e.runs) < len(words) {
		e.runs = make([]uint64, len(words))
	}
	runs := e.runs[:len(words)]
	tail := ^uint64(0) >> (uint(-gw) % 64) // in-row bits of a row's last word
	x0, x1, y0, y1 := gw, -1, gh, -1
	var hit geom.Rect
	for y := 0; y < gh; y++ {
		row := words[y*wpr : (y+1)*wpr]
		for i := range row {
			r := freeWord(row, i, tail)
			for k := 1; k < s.W && r != 0; k++ {
				q, b := i+k/64, uint(k%64)
				r &= freeWord(row, q, tail)>>b | freeWord(row, q+1, tail)<<(64-b)
			}
			runs[y*wpr+i] = r
		}
		oy := y + 1 - s.H // the origin row whose sites end on row y
		if oy < 0 {
			continue
		}
		for i := 0; i < wpr; i++ {
			o := runs[oy*wpr+i]
			for j := oy + 1; j <= y && o != 0; j++ {
				o &= runs[j*wpr+i]
			}
			if o != 0 {
				x0 = min(x0, i*64+bits.TrailingZeros64(o))
				x1 = max(x1, i*64+63-bits.LeadingZeros64(o))
				y0, y1 = min(y0, oy), oy
			}
		}
		if x1 >= 0 {
			hit = clip.Intersect(geom.Rect{X: x1, Y: y1, W: x0 + s.W - x1, H: y0 + s.H - y1})
			if hit.Empty() {
				return hit, true
			}
		}
	}
	return hit, x1 >= 0
}

// freeWord returns word j of the row's free mask. Cells past the row
// end read as occupied: tail masks the last word's padding bits, and
// words past the row are zero.
func freeWord(row []uint64, j int, tail uint64) uint64 {
	switch {
	case j < len(row)-1:
		return ^row[j]
	case j == len(row)-1:
		return ^row[j] & tail
	}
	return 0
}

// ComputeBrute is an exhaustive oracle for the test suite: for every
// cell and every module containing it, it tries every position and
// orientation of the module on the array, checking cell-by-cell that
// the candidate site is free and avoids the faulty cell. O(m²n²·|M|)
// — small arrays only.
func ComputeBrute(p *place.Placement, array geom.Rect) Result {
	res := Result{
		Array:             array,
		Total:             array.Cells(),
		CoveredMap:        make([]bool, array.Cells()),
		ModuleRelocatable: make([]bool, len(p.Modules)),
	}
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			pt := geom.Point{X: array.X + x, Y: array.Y + y}
			covered := true
			for _, mi := range p.ModulesAt(pt) {
				if !relocatableBrute(p, array, mi, pt) {
					covered = false
					break
				}
			}
			res.CoveredMap[y*array.W+x] = covered
			if covered {
				res.Covered++
			}
		}
	}
	for mi := range p.Modules {
		for _, pt := range p.Rect(mi).Intersect(array).Points() {
			if relocatableBrute(p, array, mi, pt) {
				res.ModuleRelocatable[mi] = true
				break
			}
		}
	}
	return res
}

// relocatableBrute reports whether module mi can be relocated when
// cell faulty (core coordinates) fails, by exhaustive position search.
func relocatableBrute(p *place.Placement, array geom.Rect, mi int, faulty geom.Point) bool {
	m := p.Modules[mi]
	g := p.OccupancyDuring(array, m.Span, mi)
	g.Set(geom.Point{X: faulty.X - array.X, Y: faulty.Y - array.Y}, true)
	sizes := []geom.Size{m.Size}
	if !m.Size.IsSquare() {
		sizes = append(sizes, m.Size.Transpose())
	}
	for _, s := range sizes {
		for y := 0; y+s.H <= array.H; y++ {
			for x := 0; x+s.W <= array.W; x++ {
				if g.RectFree(geom.Rect{X: x, Y: y, W: s.W, H: s.H}) {
					return true
				}
			}
		}
	}
	return false
}
