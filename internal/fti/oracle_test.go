package fti

import (
	"testing"

	"dmfb/internal/emptyrect"
	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// computeMER is the Section 5.3 procedure as the paper states it, kept
// as a second oracle for the feasible-site kernel: for each module,
// mine the maximal empty rectangles of the occupancy during its span
// with the module removed, then test every cell of the module with
// emptyrect.AccommodatesAvoiding.
func computeMER(p *place.Placement, array geom.Rect) Result {
	res := Result{
		Array:             array,
		Total:             array.Cells(),
		CoveredMap:        make([]bool, array.Cells()),
		ModuleRelocatable: make([]bool, len(p.Modules)),
	}
	for i := range res.CoveredMap {
		res.CoveredMap[i] = true
	}
	for mi, m := range p.Modules {
		mers := emptyrect.Maximal(p.OccupancyDuring(array, m.Span, mi))
		for _, pt := range p.Rect(mi).Intersect(array).Points() {
			local := geom.Point{X: pt.X - array.X, Y: pt.Y - array.Y}
			if emptyrect.AccommodatesAvoiding(mers, m.Size, local) {
				res.ModuleRelocatable[mi] = true
				continue
			}
			res.CoveredMap[local.Y*array.W+local.X] = false
		}
	}
	for _, c := range res.CoveredMap {
		if c {
			res.Covered++
		}
	}
	return res
}

// assertSameResult reports every field in which got differs from want.
func assertSameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Array != want.Array || got.Total != want.Total || got.Covered != want.Covered {
		t.Errorf("%s: array/total/covered %v/%d/%d, want %v/%d/%d", tag,
			got.Array, got.Total, got.Covered, want.Array, want.Total, want.Covered)
		return
	}
	if len(got.CoveredMap) != len(want.CoveredMap) {
		t.Errorf("%s: coverage map has %d cells, want %d", tag, len(got.CoveredMap), len(want.CoveredMap))
		return
	}
	for c := range got.CoveredMap {
		if got.CoveredMap[c] != want.CoveredMap[c] {
			t.Errorf("%s: cell (%d,%d) covered=%v, want %v", tag,
				c%got.Array.W, c/got.Array.W, got.CoveredMap[c], want.CoveredMap[c])
			return
		}
	}
	for mi := range want.ModuleRelocatable {
		if got.ModuleRelocatable[mi] != want.ModuleRelocatable[mi] {
			t.Errorf("%s: module %d relocatable=%v, want %v", tag,
				mi, got.ModuleRelocatable[mi], want.ModuleRelocatable[mi])
		}
	}
}

// incResult reads the incremental evaluator's current analysis as a
// Result: the coverage map is drawn from the modules' uncovered
// rectangles, independently of the evaluator's own covered count.
func incResult(inc *Incremental) Result {
	a := inc.Array()
	r := Result{
		Array:             a,
		Total:             inc.Total(),
		Covered:           inc.Covered(),
		CoveredMap:        make([]bool, a.Cells()),
		ModuleRelocatable: make([]bool, len(inc.mods)),
	}
	for c := range r.CoveredMap {
		r.CoveredMap[c] = true
	}
	for mi, m := range inc.mods {
		r.ModuleRelocatable[mi] = m.reloc
		for y := m.uncovered.Y; y < m.uncovered.MaxY(); y++ {
			for x := m.uncovered.X; x < m.uncovered.MaxX(); x++ {
				r.CoveredMap[y*a.W+x] = false
			}
		}
	}
	return r
}
