package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"time"

	"dmfb/internal/pipeline"
	"dmfb/internal/server"
)

// Every run reports every end-to-end metric, but each workload
// exercises only some of the four latency classes: compile has no
// cache, serve never runs a two-stage compile, campaign and fleet
// compile nothing while timed. A run measures the classes its workload
// lacks on this fixed reference mix, the same ops in every run of
// every workload, so those metrics move only when the code under the
// class moves:
//
//	sa        a PCR area-only compile through pipeline.Run, refSARuns
//	          times
//	twostage  a PCR two-stage compile at beta=30, refTwoStageRuns times
//	hit       two clients re-posting a cached PCR compile, refHitSteps
//	          bursts of refHitBurst requests
//	miss      one client posting distinct PCR compiles (refMiss seeds)
//
// The reference ops run one step at a time between the workload's
// timed windows, outside them, so host drift over the run averages out
// of them as it does out of the workload's own ops. The compiles repeat
// one anneal seed: PCR compile times cluster by seed, and a median
// over a few seeds jumped between clusters from run to run.
const (
	refSeed         = 1
	refSARuns       = 9
	refTwoStageRuns = 5
)

// refMiss seeds the distinct reference misses.
var refMiss = []int64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121}

const (
	refHitSeed = 100
	// Hits come from two closed-loop clients, as in the serve
	// workload, in many short bursts spread over the run: one client
	// alone flips between latency regimes from burst to burst (its
	// goroutines and the server's share a CPU or not), and its tail
	// followed host load that calibration does not remove. A p99 over
	// refHitSteps*refHitBurst hits has 100 samples beyond it.
	refHitSteps = 50
	refHitBurst = 200
)

// refMix is the reference ops still to run.
type refMix struct {
	classes map[string]*samples
	steps   []func(b *bench)
	done    int
	ls      *liveServer // nil unless hit or miss is measured
	// hitFirst is the first response to the hit body; every hit must
	// match it byte for byte.
	hitFirst []byte
}

// newRefMix plans the reference steps for the given classes, round
// robin across classes.
func (b *bench) newRefMix(classes []string) (*refMix, error) {
	r := &refMix{classes: map[string]*samples{}}
	var lists [][]func(b *bench)
	for _, c := range classes {
		s := &samples{cal: b.cal}
		r.classes[c] = s
		var list []func(b *bench)
		switch c {
		case "sa":
			for i := 0; i < refSARuns; i++ {
				list = append(list, refCompile(s, compileOp{Class: "sa", Assay: "pcr", Seed: refSeed}))
			}
		case "twostage":
			for i := 0; i < refTwoStageRuns; i++ {
				list = append(list, refCompile(s, compileOp{Class: "twostage", Assay: "pcr", Beta: 30, Seed: refSeed}))
			}
		case "miss":
			for _, seed := range refMiss {
				list = append(list, r.refMissStep(s, seed))
			}
		case "hit":
			for i := 0; i < refHitSteps; i++ {
				list = append(list, r.refHitStep(s))
			}
		}
		lists = append(lists, list)
	}
	for more := true; more; {
		more = false
		for i, l := range lists {
			if len(l) > 0 {
				r.steps = append(r.steps, l[0])
				lists[i] = l[1:]
				more = true
			}
		}
	}
	if r.classes["hit"] == nil && r.classes["miss"] == nil {
		return r, nil
	}
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	r.ls = ls
	if r.classes["hit"] != nil {
		r.hitFirst = ls.warm(b, [][]byte{refHitBody()})[0]
	}
	return r, nil
}

func refHitBody() []byte { return compileBody(server.CompileRequest{Assay: "pcr", Seed: refHitSeed}) }

// stepDue runs the reference steps due once window i of n timed
// windows has ended, spreading them evenly over the timed phase.
func (r *refMix) stepDue(b *bench, i, n int) {
	for r.done < len(r.steps) && r.done*n < (i+1)*len(r.steps) {
		r.step(b)
	}
}

// step runs the next reference step, after a GC as for timed windows.
func (r *refMix) step(b *bench) {
	runtime.GC()
	r.steps[r.done](b)
	r.done++
}

// finish runs the steps still due.
func (r *refMix) finish(b *bench) {
	for r.done < len(r.steps) {
		r.step(b)
	}
}

// stop stops the reference server.
func (r *refMix) stop() error {
	if r.ls == nil {
		return nil
	}
	return r.ls.stop()
}

func refCompile(s *samples, op compileOp) func(b *bench) {
	return func(b *bench) {
		var res pipeline.Result
		var err error
		var ms float64
		w := b.cal.window(func() {
			t0 := time.Now()
			res, err = pipeline.Run(context.Background(), op.request())
			ms = msSince(t0)
		})
		ok := err == nil && ftiMatchesOracle(res)
		b.op(ok, "reference compile %+v: err=%v", op, err)
		if ok {
			s.add(ms, w)
		}
	}
}

func (r *refMix) refMissStep(s *samples, seed int64) func(b *bench) {
	return func(b *bench) {
		body := compileBody(server.CompileRequest{Assay: "pcr", Seed: seed})
		var rep reply
		w := b.cal.window(func() { rep = r.ls.post(body) })
		ok := rep.err == nil && rep.status == http.StatusOK && rep.cache == "miss"
		b.op(ok, "reference miss %d: status %d cache %q err %v", seed, rep.status, rep.cache, rep.err)
		if ok {
			s.add(rep.ms, w)
		}
	}
}

func (r *refMix) refHitStep(s *samples) func(b *bench) {
	return func(b *bench) {
		body := refHitBody()
		reps := make([]reply, refHitBurst)
		w := b.cal.window(func() {
			r.ls.postAll(b, reps, func(int) ([]byte, string) { return body, "http.compile/hit" })
		})
		for _, rep := range reps {
			ok := rep.err == nil && rep.status == http.StatusOK && rep.cache == "hit" && bytes.Equal(rep.body, r.hitFirst)
			b.op(ok, "reference hit: status %d cache %q err %v", rep.status, rep.cache, rep.err)
			if ok {
				s.add(rep.ms, w)
			}
		}
	}
}
