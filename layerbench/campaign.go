package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/dispatch"
)

// campaign: single-process campaign.Run with two workers and a
// checkpoint file, running the assay single-fault campaign under the
// full recovery ladder. Every trial simulates the assay, routes, and
// reconfigures around the fault (L3 re-anneals through
// core.AnnealArea), but never calls the FTI kernel.

const campaignWorkers = 2

// recorder wraps a TrialFunc and keeps every outcome it returns, keyed
// by the trial's derived seed, so the benchmark can rebuild a
// campaign's summary without the engine's or the dispatcher's own
// bookkeeping.
type recorder struct {
	mu   sync.Mutex
	out  map[int64]campaign.TrialResult
	keep bool      // keep per-trial times (traced sections)
	ms   []float64 // per-trial ms when keep
	busy atomic.Int64
}

func newRecorder(keepTimes bool) *recorder {
	return &recorder{out: map[int64]campaign.TrialResult{}, keep: keepTimes}
}

func (r *recorder) wrap(fn campaign.TrialFunc) campaign.TrialFunc {
	return func(ctx context.Context, t campaign.Trial) campaign.Outcome {
		t0 := time.Now()
		out := fn(ctx, t)
		d := time.Since(t0)
		res := campaign.TrialResult{Trial: t.Index, Survived: out.Survived && out.Err == nil, Value: out.Value}
		if out.Err != nil {
			res.Err = out.Err.Error()
		}
		r.busy.Add(d.Nanoseconds())
		r.mu.Lock()
		r.out[t.Seed] = res
		if r.keep {
			r.ms = append(r.ms, float64(d.Nanoseconds())/1e6)
		}
		r.mu.Unlock()
		return out
	}
}

// take returns the recorded results of trials [0, trials) of the
// campaign seeded seed, in trial order, and forgets them.
func (r *recorder) take(seed int64, trials int) ([]campaign.TrialResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	results := make([]campaign.TrialResult, trials)
	for i := range results {
		k := campaign.DeriveSeed(seed, uint64(i))
		res, ok := r.out[k]
		if !ok || res.Trial != i {
			return nil, fmt.Errorf("trial %d of campaign seed %d was never recorded", i, seed)
		}
		results[i] = res
		delete(r.out, k)
	}
	return results, nil
}

// summary is the deterministic summary bytes of the recorded trials.
func (r *recorder) summary(sp dispatch.Spec) ([]byte, []campaign.TrialResult, error) {
	results, err := r.take(sp.Seed, sp.Trials)
	if err != nil {
		return nil, nil, err
	}
	b, err := campaign.Summarize(sp.Name(), sp.Seed, results).MarshalDeterministic()
	return b, results, err
}

type campaignSession struct {
	specs []dispatch.Spec
	fn    campaign.TrialFunc
	rec   *recorder
	dir   string
}

// campaignWarmTrials is the size of the set-up campaign.
const campaignWarmTrials = 64

func setupCampaign(b *bench, seconds int) (session, error) {
	specs := campaignSpecs(b.seed, seconds)
	built, err := specs[0].Build(context.Background(), dispatch.BuildOptions{Tool: "layerbench"})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.work, "campaign-")
	if err != nil {
		return nil, err
	}
	rec := newRecorder(false)
	s := &campaignSession{specs: specs, fn: rec.wrap(built.Fn), rec: rec, dir: dir}
	warm := assaySpec(-1, campaignWarmTrials)
	if _, _, err := s.runOne(b, warm, filepath.Join(dir, "warm.jsonl"), campaignWorkers); err != nil {
		return nil, err
	}
	return s, nil
}

// runOne runs one campaign through campaign.Run, checks its summary
// against the recorded outcomes, and returns its report and those
// outcomes.
func (s *campaignSession) runOne(b *bench, sp dispatch.Spec, checkpoint string, workers int) (campaign.Report, []campaign.TrialResult, error) {
	cfg := campaign.Config{
		Name: sp.Name(), Trials: sp.Trials, Workers: workers, Seed: sp.Seed,
		Checkpoint: checkpoint, Fingerprint: sp.Fingerprint(),
	}
	end := b.tr.begin("campaign.Run")
	rep, err := campaign.Run(context.Background(), cfg, s.fn)
	end()
	if err != nil {
		return rep, nil, err
	}
	// The campaign's trials are its ops: errored trials fail, and so
	// does a summary that differs from the recorded outcomes'.
	want, results, err := s.rec.summary(sp)
	got, merr := rep.Summary.MarshalDeterministic()
	failed := rep.Summary.Errors
	if err != nil || merr != nil || !bytes.Equal(want, got) {
		failed++
	}
	b.ops(sp.Trials, failed, "campaign seed %d: %d errored trials, summary matches recorded outcomes: %v (%v)",
		sp.Seed, rep.Summary.Errors, bytes.Equal(want, got), err)
	return rep, results, nil
}

func (s *campaignSession) run(b *bench) (*phase, error) {
	ph := newPhase(b.cal)
	survived := 0
	for i, sp := range s.specs {
		var rep campaign.Report
		var err error
		var ms float64
		f := b.window(i, len(s.specs), func() {
			t0 := time.Now()
			rep, _, err = s.runOne(b, sp, filepath.Join(s.dir, fmt.Sprintf("c%03d.jsonl", i)), campaignWorkers)
			ms = msSince(t0)
		})
		if err != nil {
			return nil, err
		}
		ph.ops += sp.Trials
		ph.window(ms, f)
		survived += rep.Summary.Survived
	}
	ph.quality = float64(survived) / float64(ph.ops)
	return ph, nil
}

func (s *campaignSession) close() error { return os.RemoveAll(s.dir) }
