package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/dispatch"
	"dmfb/internal/format"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/invitro"
	"dmfb/internal/pcache"
	"dmfb/internal/pcr"
	"dmfb/internal/pipeline"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
	"dmfb/internal/server"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
)

// The layer suite runs in every traced run, whatever the workload, so
// every traced run reports every per-layer metric. Each section calls
// one group of layers directly, with a span around each call (or
// around a batch of n identical calls, for calls too short to time one
// by one); the metrics are read back from those spans. Sizes are fixed,
// so counts repeat exactly. Per-layer timings are unscaled: the run
// reports host.calib_ms beside them to explain drift.

func (b *bench) layerSuite() error {
	for _, s := range []struct {
		name string
		run  func() error
	}{
		{"suite.compile", b.compileLayers}, {"suite.serve", b.serveLayers},
		{"suite.campaign", b.campaignLayers}, {"suite.fleet", b.fleetLayers},
	} {
		end := b.tr.section(s.name)
		err := s.run()
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// batch runs f n times under one span named name.
func (b *bench) batch(name string, n int, f func()) {
	end := b.tr.beginN(name, n)
	for i := 0; i < n; i++ {
		f()
	}
	end()
}

// spanMedian is the median per-call duration of the named spans, in
// ms, scaled by unit (1 for ms, 1e3 for us, 1e6 for ns).
func (b *bench) spanMedian(name string, unit float64) float64 {
	return median(b.tr.perCall(name)) * unit
}

// spanTail sets a tail percentile of the named spans, in ms, or
// refuses it.
func (b *bench) spanTail(metricName, spanName string, pct int) {
	v, err := percentile(b.tr.perCall(spanName), pct)
	if err != nil {
		b.refuse(metricName, err)
		return
	}
	b.set(metricName, "ms", v)
}

func schedules() (pcrS, ivtS *schedule.Schedule, err error) {
	if pcrS, err = pcr.Schedule(); err != nil {
		return nil, nil, err
	}
	ivtS, err = invitro.Synthesize(2, 2, 0)
	return pcrS, ivtS, err
}

// compileLayers: the SA move kernel, the two-stage placer, the FTI
// kernel and synthesis.
func (b *bench) compileLayers() error {
	pcrS, ivtS, err := schedules()
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	type run struct {
		prob core.Problem
		seed int64
	}
	runs := []run{
		{core.FromSchedule(pcrS), 1}, {core.FromSchedule(pcrS), 2},
		{core.FromSchedule(pcrS), 3}, {core.FromSchedule(ivtS), 1},
	}
	var ns1, ns2 []float64
	var evals2 int
	var finals []*place.Placement
	for _, r := range runs {
		opts := core.Options{Seed: r.seed, Metrics: reg}
		t0 := time.Now()
		end := b.tr.begin("core.AnnealArea")
		s1, st1, err := core.AnnealArea(r.prob, opts)
		end()
		d1 := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		end = b.tr.begin("core.AnnealFaultTolerance")
		s2, st2, err := core.AnnealFaultTolerance(s1, r.prob, opts, core.FTOptions{Beta: 30})
		end()
		d2 := time.Since(t0)
		if err != nil {
			return err
		}
		ns1 = append(ns1, float64(d1.Nanoseconds())/float64(st1.Evaluations))
		ns2 = append(ns2, float64(d2.Nanoseconds())/float64(st2.Evaluations))
		evals2 += st2.Evaluations
		finals = append(finals, s2)
		brute := fti.ComputeBrute(s2, s2.BoundingBox())
		b.op(brute.Covered == fti.Compute(s2).Covered, "stage-2 placement seed %d: FTI differs from fti.ComputeBrute", r.seed)
	}
	b.set("core.stage1_ms", "ms", b.spanMedian("core.AnnealArea", 1))
	b.set("core.stage1_ns_per_eval", "ns", median(ns1))
	b.set("core.stage2_ms", "ms", b.spanMedian("core.AnnealFaultTolerance", 1))
	b.set("core.stage2_ns_per_eval", "ns", median(ns2))
	b.set("core.stage2_evals", "count", float64(evals2))
	proposed, committed := 0.0, 0.0
	for _, st := range []string{"area", "ft"} {
		proposed += float64(reg.Counter("place." + st + ".moves_proposed").Value())
		committed += float64(reg.Counter("place." + st + ".moves_committed").Value())
	}
	b.set("core.accept_ratio", "ratio", committed/proposed)

	if err := b.ftiReplay(finals[0].Clone()); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		for _, p := range finals {
			b.batch("fti.ComputeOn", 50, func() { fti.ComputeOn(p, p.BoundingBox()) })
		}
	}
	b.set("fti.compute_us", "us", b.spanMedian("fti.ComputeOn", 1e3))
	for i := 0; i < 10; i++ {
		b.batch("synth", 50, func() {
			_, perr := pcr.Schedule()
			_, ierr := invitro.Synthesize(2, 2, 0)
			err = errors.Join(err, perr, ierr)
		})
		if err != nil {
			return err
		}
	}
	b.set("synth.us", "us", b.spanMedian("synth", 1e3)/2)
	return nil
}

// ftiMoves is the length of the seeded single-module move replay.
const (
	ftiMoves     = 20000
	ftiMoveBatch = 1000
)

// ftiReplay drives fti.Incremental through a seeded replay of
// single-module moves shaped like low-temperature stage-2 annealing:
// one-cell displacements inside the array, mostly reverted.
func (b *bench) ftiReplay(p *place.Placement) error {
	inc := fti.NewIncremental(p)
	evals0, hits0 := inc.Stats()
	rng := rand.New(rand.NewSource(b.seed))
	array := p.BoundingBox()
	move := func() {
		i := rng.Intn(len(p.Modules))
		oldPos, oldRot := p.Pos[i], p.Rot[i]
		sz := p.Size(i)
		p.Pos[i] = geom.Point{
			X: min(max(oldPos.X+rng.Intn(3)-1, array.X), array.X+array.W-sz.W),
			Y: min(max(oldPos.Y+rng.Intn(3)-1, array.Y), array.Y+array.H-sz.H),
		}
		inc.Apply(p.BoundingBox(), inc.AffectedBy(i))
		if rng.Intn(4) == 0 {
			inc.Commit()
			return
		}
		p.Pos[i], p.Rot[i] = oldPos, oldRot
		inc.Revert()
	}
	for n := 0; n < ftiMoves; n += ftiMoveBatch {
		b.batch("fti.Incremental.move", ftiMoveBatch, move)
	}
	evals, hits := inc.Stats()
	evals, hits = evals-evals0, hits-hits0
	b.set("fti.move_ns", "ns", b.spanMedian("fti.Incremental.move", 1e6))
	b.set("fti.memo_hit_rate", "ratio", float64(hits)/float64(evals+hits))
	want := fti.ComputeOn(p, p.BoundingBox())
	b.op(inc.Covered() == want.Covered && inc.Array() == p.BoundingBox(),
		"fti.Incremental after %d moves: covered %d, fti.ComputeOn %d", ftiMoves, inc.Covered(), want.Covered)
	return nil
}

// serveLayers: the compile server's hit path taken apart.
func (b *bench) serveLayers() error {
	ls, err := startServer()
	if err != nil {
		return err
	}
	body := compileBody(server.CompileRequest{Assay: "pcr", Seed: 1})
	bodies := [][]byte{body,
		compileBody(server.CompileRequest{Assay: "pcr", Placer: "twostage", Beta: 30, Seed: 1}),
		compileBody(server.CompileRequest{Assay: "invitro", Samples: 2, Assays: 2, Seed: 1}),
	}
	first := ls.warm(b, bodies)

	h := ls.srv.Handler()
	recFailed := 0
	for i := 0; i < 20; i++ {
		b.batch("server.Handler.ServeHTTP", 100, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
			if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), first[0]) {
				recFailed++
			}
		})
	}
	b.ops(2000, recFailed, "handler hits: %d replies differ from the first response", recFailed)
	netFailed := 0
	for i := 0; i < 2000; i++ {
		end := b.tr.begin("http.hit")
		r := ls.post(body)
		end()
		if r.err != nil || r.status != http.StatusOK || r.cache != "hit" || !bytes.Equal(r.body, first[0]) {
			netFailed++
		}
	}
	b.ops(2000, netFailed, "loopback hits: %d replies failed their check", netFailed)
	// The cache as the HTTP traffic above left it.
	st := ls.srv.Cache().Stats()
	b.set("pcache.hits", "count", float64(st.Hits))
	b.set("pcache.misses", "count", float64(st.Misses))
	b.set("pcache.evictions", "count", float64(st.Evictions))
	handlerUS := b.spanMedian("server.Handler.ServeHTTP", 1e3)
	b.set("server.handler_hit_us", "us", handlerUS)
	b.set("net.hit_overhead_us", "us", b.spanMedian("http.hit", 1e3)-handlerUS)

	// The cache layer on the working set's own keys and entries.
	pcrS, _, err := schedules()
	if err != nil {
		return err
	}
	in := pcache.Input{Schedule: pcrS, Problem: core.FromSchedule(pcrS), Placer: "sa", Options: core.Options{Seed: 1}}
	var key pcache.Key
	for i := 0; i < 10; i++ {
		b.batch("pcache.Fingerprint", 100, func() { key = pcache.Fingerprint(in) })
	}
	b.set("pcache.fingerprint_us", "us", b.spanMedian("pcache.Fingerprint", 1e3))
	cache := ls.srv.Cache()
	entry, ok := cache.Get(key)
	b.op(ok, "working-set key %s missing from the server cache", key)
	if !ok {
		return fmt.Errorf("working-set entry not cached")
	}
	for i := 0; i < 10; i++ {
		b.batch("pcache.Get", 10000, func() { cache.Get(key) })
	}
	b.set("pcache.get_ns", "ns", b.spanMedian("pcache.Get", 1e6))
	fresh := pcache.New(0, nil)
	keys := make([]pcache.Key, 1000)
	for i := 0; i < 10; i++ {
		for n := range keys {
			keys[n] = pcache.Key(fmt.Sprintf("k%d-%d", i, n))
		}
		n := 0
		b.batch("pcache.Put", len(keys), func() {
			fresh.Put(keys[n], entry)
			n++
		})
	}
	b.set("pcache.put_us", "us", b.spanMedian("pcache.Put", 1e3))
	var pl *place.Placement
	for i := 0; i < 10; i++ {
		b.batch("format.UnmarshalPlacement", 200, func() { pl, err = format.UnmarshalPlacement(entry.Placement) })
		if err != nil {
			return fmt.Errorf("unmarshal a cached placement: %w", err)
		}
	}
	b.set("format.unmarshal_us", "us", b.spanMedian("format.UnmarshalPlacement", 1e3))
	var raw []byte
	for i := 0; i < 10; i++ {
		b.batch("format.MarshalPlacement", 200, func() { raw, err = format.MarshalPlacement(pl) })
	}
	b.op(err == nil && bytes.Equal(raw, entry.Placement), "placement bytes do not survive unmarshal+marshal")
	b.set("format.marshal_us", "us", b.spanMedian("format.MarshalPlacement", 1e3))

	// Misses without HTTP: the same compiles through pipeline.Run.
	for _, seed := range refMiss[:5] {
		end := b.tr.begin("pipeline.Run/miss")
		res, err := pipeline.Run(context.Background(), compileOp{Class: "sa", Assay: "pcr", Seed: seed}.request())
		end()
		b.op(err == nil && ftiMatchesOracle(res), "miss pipeline seed %d: %v", seed, err)
	}
	b.set("serve.miss_pipeline_ms", "ms", b.spanMedian("pipeline.Run/miss", 1))

	rejected := ls.reg.Counter("server.rejected").Value()
	b.set("server.rejected", "count", float64(rejected))
	b.ops(0, int(rejected), "server rejected %d requests", rejected)
	return ls.stop()
}

// Campaign section sizes: the trial-timing campaign gives
// faultsim.trial_ms_p99 more than minTail samples beyond it.
const (
	layerCampaignTrials = 1200
	speedupTrials       = 600
)

// campaignLayers: the trial engine and its durable log.
func (b *bench) campaignLayers() error {
	sp := assaySpec(b.seed, layerCampaignTrials)
	built, err := sp.Build(context.Background(), dispatch.BuildOptions{Tool: "layerbench"})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.work, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := newRecorder(true)
	s := &campaignSession{fn: rec.wrap(built.Fn), rec: rec, dir: dir}
	t0 := time.Now()
	rep, results, err := s.runOne(b, sp, filepath.Join(dir, "timed.jsonl"), campaignWorkers)
	elapsed := time.Since(t0)
	if err != nil {
		return err
	}
	v, err := percentile(rec.ms, 50)
	if err != nil {
		return err
	}
	b.set("faultsim.trial_ms_p50", "ms", v)
	if v, err = percentile(rec.ms, 99); err != nil {
		b.refuse("faultsim.trial_ms_p99", err)
	} else {
		b.set("faultsim.trial_ms_p99", "ms", v)
	}
	b.set("campaign.busy_share", "ratio",
		float64(rec.busy.Load())/(float64(elapsed.Nanoseconds())*campaignWorkers))
	if rep.Summary.Values != nil {
		b.set("recovery.depth_mean", "level", rep.Summary.Values.Mean)
	}

	// Trial phase only, same trials at one and two workers.
	var wall [2]float64
	for i, workers := range []int{1, 2} {
		ssp := assaySpec(b.seed+1, speedupTrials)
		t0 := time.Now()
		if _, _, err := s.runOne(b, ssp, "", workers); err != nil {
			return err
		}
		wall[i] = msSince(t0)
	}
	b.set("campaign.speedup_2w", "ratio", wall[0]/wall[1])

	// The durable log and the merge over the timed campaign's records.
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("log%d.jsonl", i))
		id := campaign.CheckpointID{Campaign: sp.Name(), Seed: sp.Seed, Trials: sp.Trials, Fingerprint: sp.Fingerprint()}
		end := b.tr.beginN("campaign.ResultLog", len(results))
		log, err := campaign.NewResultLog(path, id)
		if err != nil {
			return err
		}
		for _, r := range results {
			if err := log.Append(r); err != nil {
				return err
			}
		}
		err = log.Close()
		end()
		if err != nil {
			return err
		}
		back, err := campaign.ReadResultLog(path, id)
		b.op(err == nil && len(back) == len(results), "result log read back %d of %d records: %v", len(back), len(results), err)
	}
	b.set("campaign.append_us", "us", b.spanMedian("campaign.ResultLog", 1e3))
	for i := 0; i < 5; i++ {
		b.batch("campaign.Summarize", 1, func() { campaign.Summarize(sp.Name(), sp.Seed, results) })
	}
	b.set("campaign.summarize_ms", "ms", b.spanMedian("campaign.Summarize", 1))

	// A fault-free simulation of the campaign's own placement (the
	// pipeline request dispatch.Spec.Build runs).
	res, err := pipeline.Run(context.Background(), pipeline.Request{
		Synth: &pipeline.SynthSpec{Assay: "pcr"},
		Place: &pipeline.PlaceSpec{Placer: "sa", Options: core.Options{Seed: 2, ItersPerModule: 120, WindowPatience: 4}},
	})
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		end := b.tr.begin("sim.Run")
		out := sim.Run(res.Schedule, res.Placement, sim.Options{})
		end()
		b.op(out.Outcome == sim.OutcomeCompleted, "fault-free simulation ended %v", out.Outcome)
	}
	b.set("sim.run_ms", "ms", b.spanMedian("sim.Run", 1))
	return nil
}

// Fleet section: enough light campaigns that more than minTail leases
// lie beyond dispatch.lease_ms_p99.
const (
	layerFleetCampaigns = 4
	layerFleetTrials    = 65536
	layerBuilds         = 3
)

// fleetLayers: the dispatcher and its simd workers.
func (b *bench) fleetLayers() error {
	for i := 0; i < layerBuilds; i++ {
		end := b.tr.begin("dispatch.Spec.Build")
		_, err := multiSpec(b.seed, 1).Build(context.Background(), dispatch.BuildOptions{Tool: "layerbench"})
		end()
		if err != nil {
			return err
		}
	}
	b.set("dispatch.build_ms", "ms", b.spanMedian("dispatch.Spec.Build", 1))

	var specs []dispatch.Spec
	for i := 0; i < layerFleetCampaigns; i++ {
		specs = append(specs, multiSpec(b.seed+int64(i), layerFleetTrials))
	}
	s, err := startFleet(b, specs)
	if err != nil {
		return err
	}
	busy0, rpc0, granted0 := s.rec.busy.Load(), s.rpc.busy.Load(), s.rpc.granted.Load()
	t0 := time.Now()
	_, err = s.run(b)
	wall := float64(time.Since(t0).Nanoseconds()) * fleetWorkers
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.spanTail("dispatch.lease_ms_p50", "rpc.lease", 50)
	b.spanTail("dispatch.lease_ms_p99", "rpc.lease", 99)
	b.spanTail("dispatch.results_ms_p50", "rpc.results", 50)
	b.spanTail("dispatch.results_ms_p99", "rpc.results", 99)
	b.set("dispatch.heartbeats", "count", float64(len(b.tr.perCall("rpc.heartbeat"))))
	b.set("dispatch.busy_share", "ratio", float64(s.rec.busy.Load()-busy0)/wall)
	b.set("dispatch.rpc_share", "ratio", float64(s.rpc.busy.Load()-rpc0)/wall)
	b.set("dispatch.leases", "count", float64(s.rpc.granted.Load()-granted0))
	b.set("dispatch.expired", "count", float64(s.reg.Counter("dispatch.leases_expired").Value()))
	return nil
}
