package place

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
)

func randomModules(rng *rand.Rand, n int) []Module {
	mods := make([]Module, n)
	for i := range mods {
		start := rng.Intn(20)
		mods[i] = Module{
			ID:   i,
			Name: "M",
			Size: geom.Size{W: 1 + rng.Intn(5), H: 1 + rng.Intn(5)},
			Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(10)},
		}
	}
	return mods
}

// TestStateDifferential drives State through long random move
// sequences and asserts, at every step, that the incrementally
// maintained overlap count and bounding box exactly equal the
// from-scratch values.
func TestStateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rounds = 20
	const movesPerRound = 600 // 20 × 600 = 12000 checked moves

	for round := 0; round < rounds; round++ {
		mods := randomModules(rng, 3+rng.Intn(8))
		p := New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(12), Y: rng.Intn(12)}
			p.Rot[i] = rng.Intn(2) == 0
		}
		s := NewState(p)

		for mv := 0; mv < movesPerRound; mv++ {
			i := rng.Intn(len(mods))
			s.MoveModule(i, geom.Point{X: rng.Intn(14), Y: rng.Intn(14)}, rng.Intn(2) == 0)

			if got, want := s.Overlap(), p.OverlapCells(); got != want {
				t.Fatalf("round %d move %d: overlap = %d, scratch %d", round, mv, got, want)
			}
			if got, want := s.BoundingBox(), p.BoundingBox(); got != want {
				t.Fatalf("round %d move %d: bbox = %v, scratch %v", round, mv, got, want)
			}
			if got, want := s.ArrayCells(), p.ArrayCells(); got != want {
				t.Fatalf("round %d move %d: cells = %d, scratch %d", round, mv, got, want)
			}
		}
	}
}

// TestStateMoveRevert checks that re-issuing a move with the previous
// position and orientation restores the incremental quantities exactly.
func TestStateMoveRevert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mods := randomModules(rng, 6)
	p := New(mods)
	for i := range mods {
		p.Pos[i] = geom.Point{X: rng.Intn(10), Y: rng.Intn(10)}
	}
	s := NewState(p)

	for mv := 0; mv < 2000; mv++ {
		i := rng.Intn(len(mods))
		oldPos, oldRot := p.Pos[i], p.Rot[i]
		wantOverlap, wantBB := s.Overlap(), s.BoundingBox()

		s.MoveModule(i, geom.Point{X: rng.Intn(14), Y: rng.Intn(14)}, rng.Intn(2) == 0)
		s.MoveModule(i, oldPos, oldRot)

		if s.Overlap() != wantOverlap || s.BoundingBox() != wantBB {
			t.Fatalf("move %d: revert drifted: overlap %d→%d bbox %v→%v",
				mv, wantOverlap, s.Overlap(), wantBB, s.BoundingBox())
		}
	}
}

// TestStateMarkUndo moves one to three modules after each Mark (a
// module may move twice) and then either undoes them or keeps them,
// asserting after every step that the positions, orientations, cached
// rectangles, overlap and bounding box equal the from-scratch values —
// and, after an Undo, the values Mark saw.
func TestStateMarkUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 10; round++ {
		mods := randomModules(rng, 3+rng.Intn(8))
		p := New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(12), Y: rng.Intn(12)}
			p.Rot[i] = rng.Intn(2) == 0
		}
		s := NewState(p)
		for step := 0; step < 1000; step++ {
			before := p.Clone()
			wantOverlap, wantBB := s.Overlap(), s.BoundingBox()
			s.Mark()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				s.MoveModule(rng.Intn(len(mods)),
					geom.Point{X: rng.Intn(16), Y: rng.Intn(16)}, rng.Intn(2) == 0)
			}
			undo := rng.Intn(2) == 0
			if undo {
				s.Undo()
				for i := range mods {
					if p.Pos[i] != before.Pos[i] || p.Rot[i] != before.Rot[i] {
						t.Fatalf("round %d step %d: Undo left module %d at %v/%v, want %v/%v",
							round, step, i, p.Pos[i], p.Rot[i], before.Pos[i], before.Rot[i])
					}
				}
				if s.Overlap() != wantOverlap || s.BoundingBox() != wantBB {
					t.Fatalf("round %d step %d: Undo books overlap %d bbox %v, want %d %v",
						round, step, s.Overlap(), s.BoundingBox(), wantOverlap, wantBB)
				}
			}
			if got, want := s.Overlap(), p.OverlapCells(); got != want {
				t.Fatalf("round %d step %d (undo %v): overlap = %d, scratch %d", round, step, undo, got, want)
			}
			if got, want := s.BoundingBox(), p.BoundingBox(); got != want {
				t.Fatalf("round %d step %d (undo %v): bbox = %v, scratch %v", round, step, undo, got, want)
			}
			for i := range mods {
				if got, want := s.Rect(i), p.Rect(i); got != want {
					t.Fatalf("round %d step %d (undo %v): rect %d = %v, scratch %v", round, step, undo, i, got, want)
				}
			}
		}
	}
}

func TestStateUndoWithoutMarkPanics(t *testing.T) {
	s := NewState(New(randomModules(rand.New(rand.NewSource(1)), 2)))
	s.Mark()
	s.Undo()
	defer func() {
		if recover() == nil {
			t.Fatalf("a second Undo after one Mark did not panic")
		}
	}()
	s.Undo()
}

func TestConflictAdjacency(t *testing.T) {
	mods := []Module{
		{ID: 0, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Span: geom.Interval{Start: 3, End: 8}},
		{ID: 2, Span: geom.Interval{Start: 6, End: 9}},
	}
	adj := ConflictAdjacency(mods)
	want := [][]int{{1}, {0, 2}, {1}}
	for i := range want {
		if len(adj[i]) != len(want[i]) {
			t.Fatalf("adj[%d] = %v, want %v", i, adj[i], want[i])
		}
		for k := range want[i] {
			if adj[i][k] != want[i][k] {
				t.Fatalf("adj[%d] = %v, want %v", i, adj[i], want[i])
			}
		}
	}
}

func TestNewStatePanicsOnNegative(t *testing.T) {
	mods := randomModules(rand.New(rand.NewSource(1)), 2)
	p := New(mods)
	p.Pos[1] = geom.Point{X: -1, Y: 0}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewState accepted a negative position")
		}
	}()
	NewState(p)
}
