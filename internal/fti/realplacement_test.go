package fti_test

import (
	"fmt"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/invitro"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
)

// TestRealPlacementsMatchOracles checks the kernel exactly against
// both oracles on the placements the paper's experiments actually
// produce: the PCR and in-vitro 2x2 two-stage placements at β=30
// (stage-1 and final), on their bounding boxes and on margin-widened
// arrays, and checks a fresh Incremental against ComputeOn.
func TestRealPlacementsMatchOracles(t *testing.T) {
	vitro, err := invitro.Synthesize(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sched *schedule.Schedule
	}{{"pcr", pcr.MustSchedule()}, {"invitro-2x2", vitro}} {
		res, err := core.TwoStage(core.FromSchedule(c.sched), core.Options{Seed: 1}, core.FTOptions{Beta: 30})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for stage, pl := range []*place.Placement{res.Stage1, res.Final} {
			bb := pl.BoundingBox()
			for _, array := range []geom.Rect{bb, {X: bb.X - 1, Y: bb.Y - 1, W: bb.W + 2, H: bb.H + 2}} {
				tag := fmt.Sprintf("%s stage %d on %v", c.name, stage+1, array)
				got := fti.ComputeOn(pl, array)
				fti.AssertSameResult(t, tag+" vs ComputeBrute", got, fti.ComputeBrute(pl, array))
				fti.AssertSameResult(t, tag+" vs MER oracle", got, fti.ComputeMER(pl, array))
			}
			if inc, want := fti.NewIncremental(pl), fti.ComputeOn(pl, bb); inc.Covered() != want.Covered {
				t.Errorf("%s stage %d: Incremental covered %d, ComputeOn %d", c.name, stage+1, inc.Covered(), want.Covered)
			}
		}
	}
}
