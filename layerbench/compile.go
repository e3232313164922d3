package main

import (
	"context"
	"fmt"
	"time"

	"dmfb/internal/fti"
	"dmfb/internal/pipeline"
)

// compile: one closed-loop caller compiling seeded PCR and in-vitro
// schedules through pipeline.Run (synth + place + fti, no cache). The
// anneal and FTI kernels do nearly all the work.

type compileSession struct{ ops []compileOp }

func setupCompile(b *bench, seconds int) (session, error) {
	ops := compileOps(b.seed, seconds)
	// Warm up: one light compile pays for lazy start-up (code pages,
	// heap growth) before timing.
	warm := compileOp{Class: "sa", Assay: "pcr", Seed: 1}
	if _, err := pipeline.Run(context.Background(), warm.request()); err != nil {
		return nil, fmt.Errorf("warm-up compile: %w", err)
	}
	return &compileSession{ops: ops}, nil
}

func (s *compileSession) run(b *bench) (*phase, error) {
	ph := newPhase(b.cal)
	var ftis []float64
	for i, op := range s.ops {
		var res pipeline.Result
		var err error
		var ms float64
		f := b.window(i, len(s.ops), func() {
			end := b.tr.begin("pipeline.Run/" + op.Class)
			t0 := time.Now()
			res, err = pipeline.Run(context.Background(), op.request())
			ms = msSince(t0)
			end()
		})
		ok := err == nil && ftiMatchesOracle(res)
		b.op(ok, "compile op %d (%+v): err=%v, FTI differs from fti.ComputeBrute", i, op, err)
		if !ok {
			continue
		}
		ph.ops++
		ph.window(ms, f)
		ph.add(op.Class, ms, f)
		ftis = append(ftis, res.FTI.FTI())
	}
	ph.quality = mean(ftis)
	return ph, nil
}

func (s *compileSession) close() error { return nil }

// ftiMatchesOracle checks a compile's FTI against the exhaustive
// in-repo oracle.
func ftiMatchesOracle(res pipeline.Result) bool {
	if res.Placement == nil || res.FTI == nil {
		return false
	}
	brute := fti.ComputeBrute(res.Placement, res.Placement.BoundingBox())
	return brute.Covered == res.FTI.Covered && brute.Total == res.FTI.Total
}
