package fti

import (
	"fmt"
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// An image is a placement related to a source placement by a symmetry
// the fault tolerance analysis must respect: a mirror or transpose of
// the plane (applied to the array too), or a renumbering of the
// modules. Coverage must map cell for cell through the symmetry, and
// module relocatability through the renumbering.
type image struct {
	name string
	q    *place.Placement
	idx  func(int) int                   // source module index → image index
	rect func(geom.Rect) geom.Rect       // source rectangle → image rectangle
	cell func(x, y, w, h int) (int, int) // array-local cell → image cell (w×h source array)
}

// mirrorAxis keeps mirrored coordinates non-negative for the test
// placements, so the memo keys stay in range.
const mirrorAxis = 64

func identityRect(r geom.Rect) geom.Rect { return r }

func identityCell(x, y, _, _ int) (int, int) { return x, y }

func identityIdx(i int) int { return i }

// images returns the mirror-x, mirror-y, transpose and random
// permutation images of p.
func images(rng *rand.Rand, p *place.Placement) []*image {
	ims := []*image{
		{name: "mirror-x", idx: identityIdx,
			rect: func(r geom.Rect) geom.Rect { return geom.Rect{X: mirrorAxis - r.MaxX(), Y: r.Y, W: r.W, H: r.H} },
			cell: func(x, y, w, _ int) (int, int) { return w - 1 - x, y }},
		{name: "mirror-y", idx: identityIdx,
			rect: func(r geom.Rect) geom.Rect { return geom.Rect{X: r.X, Y: mirrorAxis - r.MaxY(), W: r.W, H: r.H} },
			cell: func(x, y, _, h int) (int, int) { return x, h - 1 - y }},
		{name: "transpose", idx: identityIdx,
			rect: func(r geom.Rect) geom.Rect { return geom.Rect{X: r.Y, Y: r.X, W: r.H, H: r.W} },
			cell: func(x, y, _, _ int) (int, int) { return y, x }},
	}
	for _, im := range ims {
		im.q = p.Clone()
	}
	perm := rng.Perm(len(p.Modules))
	inv := make([]int, len(perm))
	mods := make([]place.Module, len(perm))
	for k, j := range perm {
		mods[k] = p.Modules[j]
		inv[j] = k
	}
	ims = append(ims, &image{name: fmt.Sprintf("permute %v", perm), q: place.New(mods),
		idx: func(i int) int { return inv[i] }, rect: identityRect, cell: identityCell})
	for _, im := range ims {
		for i := range p.Modules {
			im.sync(p, i)
		}
	}
	return ims
}

// sync moves the image of source module i to match p.
func (im *image) sync(p *place.Placement, i int) {
	j, r := im.idx(i), im.rect(p.Rect(i))
	im.q.Pos[j] = r.Origin()
	im.q.Rot[j] = r.Size() != im.q.Modules[j].Size
}

// checkImage asserts that b, the analysis of the image, is the image
// of a, the analysis of the source.
func (im *image) checkImage(t *testing.T, tag string, a, b Result) {
	t.Helper()
	if b.Covered != a.Covered || b.Total != a.Total || b.Array != im.rect(a.Array) {
		t.Fatalf("%s %s: covered/total/array %d/%d/%v, source %d/%d/%v",
			tag, im.name, b.Covered, b.Total, b.Array, a.Covered, a.Total, a.Array)
	}
	w, h := a.Array.W, a.Array.H
	for c, cov := range a.CoveredMap {
		x, y := im.cell(c%w, c/w, w, h)
		if b.CoveredMap[y*b.Array.W+x] != cov {
			t.Fatalf("%s %s: source cell (%d,%d) covered=%v, image (%d,%d) %v",
				tag, im.name, c%w, c/w, cov, x, y, !cov)
		}
	}
	for mi, r := range a.ModuleRelocatable {
		if b.ModuleRelocatable[im.idx(mi)] != r {
			t.Fatalf("%s %s: module %d relocatable=%v, image module %d %v",
				tag, im.name, mi, r, im.idx(mi), !r)
		}
	}
}

// TestMetamorphicComputeOn: mirroring or transposing a placement with
// its array, or renumbering its modules, maps ComputeOn's result
// through the same symmetry.
func TestMetamorphicComputeOn(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 600; trial++ {
		p, array := randomCase(rng, 2, 12, 12, 4)
		src := ComputeOn(p, array)
		for _, im := range images(rng, p) {
			im.checkImage(t, fmt.Sprintf("trial %d", trial), src, ComputeOn(im.q, im.rect(array)))
		}
	}
}

// TestMetamorphicIncremental drives an Incremental on a source
// placement and one on each image through the same random move
// sequence (each move mapped through the symmetry, with the same
// commit/revert decision) and asserts after every step that the
// images' analyses are the images of the source's.
func TestMetamorphicIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for round := 0; round < 16; round++ {
		p := randomPlacement(rng, 3+rng.Intn(6))
		ims := images(rng, p)
		src := NewIncremental(p)
		incs := make([]*Incremental, len(ims))
		check := func(tag string) {
			t.Helper()
			for k, im := range ims {
				im.checkImage(t, tag, incResult(src), incResult(incs[k]))
			}
		}
		for k, im := range ims {
			incs[k] = NewIncremental(im.q)
		}
		check(fmt.Sprintf("round %d initial", round))
		for mv := 0; mv < 150; mv++ {
			i := rng.Intn(len(p.Modules))
			oldPos, oldRot := p.Pos[i], p.Rot[i]
			p.Pos[i] = geom.Point{X: rng.Intn(10), Y: rng.Intn(10)}
			p.Rot[i] = rng.Intn(2) == 0
			commit := rng.Intn(2) == 0
			src.Apply(p.BoundingBox(), src.AffectedBy(i))
			for k, im := range ims {
				im.sync(p, i)
				incs[k].Apply(im.q.BoundingBox(), incs[k].AffectedBy(im.idx(i)))
			}
			if !commit {
				p.Pos[i], p.Rot[i] = oldPos, oldRot
			}
			for k, im := range ims {
				im.sync(p, i)
				if commit {
					incs[k].Commit()
				} else {
					incs[k].Revert()
				}
			}
			if commit {
				src.Commit()
			} else {
				src.Revert()
			}
			check(fmt.Sprintf("round %d move %d", round, mv))
		}
	}
}
