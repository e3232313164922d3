package fti

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// FuzzFTI differentially fuzzes the feasible-site kernel: every
// decoded placement must give the same analysis from ComputeOn, the
// exhaustive ComputeBrute, the Section 5.3 MER procedure and a fresh
// Incremental. The kernel prices every stage-2 annealing move, so a
// divergence here silently skews every fault-tolerant placement.

// fuzzCase decodes bytes into a placement of at most six modules and
// the array to analyse it on. Byte 0 is the module count, bytes 1-2
// the array size (up to 12x12) and byte 3 the margin: 0 analyses the
// array at the origin, 1 or 2 the bounding box widened by that many
// cells. Each module then takes six bytes: width (bit 7 sets the
// rotation), height, x, y, span start and span length. Missing bytes
// read as zero, so every input decodes.
func fuzzCase(data []byte) (*place.Placement, geom.Rect) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0) % 7
	aw, ah := 1+at(1)%12, 1+at(2)%12
	mods := make([]place.Module, n)
	for i := range mods {
		b := 4 + 6*i
		st := at(b+4) % 8
		mods[i] = mod(i, "M", 1+at(b)%4, 1+at(b+1)%4, st, st+1+at(b+5)%8)
	}
	p := place.New(mods)
	for i := range mods {
		b := 4 + 6*i
		p.Pos[i] = geom.Point{X: at(b+2) % aw, Y: at(b+3) % ah}
		p.Rot[i] = at(b)&0x80 != 0
	}
	array := geom.Rect{X: 0, Y: 0, W: aw, H: ah}
	if m := at(3) % 3; m > 0 && n > 0 {
		bb := p.BoundingBox()
		array = geom.Rect{X: bb.X - m, Y: bb.Y - m, W: bb.W + 2*m, H: bb.H + 2*m}
	}
	return p, array
}

func FuzzFTI(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 5, 5, 0, 2, 2, 0, 0, 0, 9, 1, 2, 2, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, array := fuzzCase(data)
		checkOracles(t, "fuzz", p, array)
		bb := p.BoundingBox()
		assertSameResult(t, "fresh Incremental", incResult(NewIncremental(p)), ComputeBrute(p, bb))
	})
}
