package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"dmfb/internal/core"
	"dmfb/internal/dispatch"
	"dmfb/internal/pipeline"
	"dmfb/internal/server"
)

// Op lists are pure functions of (seed, seconds): every run of a seed
// executes the same ops, so the median op is the same op each run.
// Their length comes from nominal per-op costs on the reference host,
// never from a measurement, so a slow host runs the same list for
// longer instead of a shorter list.

// compileOp is one pipeline.Run call of the compile workload.
type compileOp struct {
	Class   string  `json:"class"` // "sa" (area only) or "twostage"
	Assay   string  `json:"assay"`
	Samples int     `json:"samples,omitempty"`
	Assays  int     `json:"assays,omitempty"`
	Beta    float64 `json:"beta,omitempty"`
	Seed    int64   `json:"seed"`
}

// request is the op as a pipeline request: synthesis, placement and
// FTI analysis, with no cache.
func (op compileOp) request() pipeline.Request {
	placer := "sa"
	if op.Class == "twostage" {
		placer = "twostage"
	}
	return pipeline.Request{
		Tool:  "layerbench",
		Synth: &pipeline.SynthSpec{Assay: op.Assay, Samples: op.Samples, Assays: op.Assays},
		Place: &pipeline.PlaceSpec{
			Placer:  placer,
			Options: core.Options{Seed: op.Seed},
			FT:      core.FTOptions{Beta: op.Beta},
		},
		FTI: &pipeline.FTISpec{},
	}
}

// compileBlock is the class mix the compile workload repeats, with
// each op's nominal cost in ms. PCR dominates both classes, so each
// class median lands inside the PCR ops; the in-vitro 2x3 instance
// (12 modules) joins the sa class only, as its two-stage compile
// costs seconds.
var compileBlock = []struct {
	op        compileOp
	nominalMS float64
}{
	{compileOp{Class: "sa", Assay: "pcr"}, 90},
	{compileOp{Class: "sa", Assay: "pcr"}, 90},
	{compileOp{Class: "sa", Assay: "pcr"}, 90},
	{compileOp{Class: "sa", Assay: "pcr"}, 90},
	{compileOp{Class: "sa", Assay: "invitro", Samples: 2, Assays: 2}, 120},
	{compileOp{Class: "sa", Assay: "invitro", Samples: 2, Assays: 3}, 260},
	{compileOp{Class: "twostage", Assay: "pcr", Beta: 30}, 650},
	{compileOp{Class: "twostage", Assay: "pcr", Beta: 30}, 650},
	{compileOp{Class: "twostage", Assay: "invitro", Samples: 2, Assays: 2, Beta: 30}, 1000},
}

// blocks sizes a list of blocks of nominal cost blockMS to fill
// seconds, with at least one block.
func blocks(seconds int, blockMS float64) int {
	n := int(math.Round(float64(seconds) * 1000 / blockMS))
	if n < 1 {
		n = 1
	}
	return n
}

// compileOps draws the compile workload's op list: whole blocks, each
// shuffled, with a fresh anneal seed per op.
func compileOps(seed int64, seconds int) []compileOp {
	rng := rand.New(rand.NewSource(seed))
	blockMS := 0.0
	for _, b := range compileBlock {
		blockMS += b.nominalMS
	}
	var ops []compileOp
	for n := blocks(seconds, blockMS); n > 0; n-- {
		block := make([]compileOp, len(compileBlock))
		for i, b := range compileBlock {
			block[i] = b.op
			block[i].Seed = 1 + rng.Int63n(1<<31)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	return ops
}

// Serve traffic: serveWindow requests per window, of which serveMisses
// are distinct default-SA compiles that always miss the cache; the
// rest are hits on the working set warmed during set-up. At ~0.25 ms
// per hit and ~110 ms per miss over two clients, misses take about
// half the clients' time and a window takes about serveWindowMS.
const (
	serveWindow   = 4096
	serveMisses   = 9
	serveWindowMS = 1000
	serveWorking  = 3
)

// serveOps is the serve workload's traffic.
type serveOps struct {
	// Bodies holds the working set first (Bodies[:serveWorking]), then
	// one body per miss.
	Bodies [][]byte `json:"bodies"`
	// Reqs is the body index of every request, window after window.
	Reqs []int `json:"reqs"`
}

func compileBody(r server.CompileRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of plain fields always marshals
	}
	return b
}

func makeServeOps(seed int64, seconds int) serveOps {
	rng := rand.New(rand.NewSource(seed))
	var ops serveOps
	// Working-set seeds lie below 1<<20 and miss seeds above 1<<40, so
	// no miss can hit.
	ops.Bodies = append(ops.Bodies,
		compileBody(server.CompileRequest{Assay: "pcr", Seed: 1 + rng.Int63n(1<<20)}),
		compileBody(server.CompileRequest{Assay: "pcr", Placer: "twostage", Beta: 30, Seed: 1 + rng.Int63n(1<<20)}),
		compileBody(server.CompileRequest{Assay: "invitro", Samples: 2, Assays: 2, Seed: 1 + rng.Int63n(1<<20)}),
	)
	missSeed := int64(1<<40) + rng.Int63n(1<<40)
	for w := blocks(seconds, serveWindowMS); w > 0; w-- {
		win := make([]int, serveWindow)
		for i := range win {
			win[i] = rng.Intn(serveWorking)
		}
		// Misses stay out of the last tenth of a window, so no client
		// is still annealing while the other waits at the window's end.
		for _, pos := range rng.Perm(serveWindow * 9 / 10)[:serveMisses] {
			win[pos] = len(ops.Bodies)
			ops.Bodies = append(ops.Bodies, compileBody(server.CompileRequest{Assay: "pcr", Seed: missSeed}))
			missSeed++
		}
		ops.Reqs = append(ops.Reqs, win...)
	}
	return ops
}

// Campaign workload: the assay single-fault campaign under the full
// recovery ladder, campaignTrials trials per campaign at a nominal
// campaignTPS trials per second with two workers.
const (
	campaignTrials = 512
	campaignTPS    = 950
)

func assaySpec(seed int64, trials int) dispatch.Spec {
	return dispatch.Spec{Mode: "assay", K: 1, Recovery: "ladder", Trials: trials, Seed: seed}
}

func campaignSpecs(seed int64, seconds int) []dispatch.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []dispatch.Spec
	for n := blocks(seconds, campaignTrials*1000/campaignTPS); n > 0; n-- {
		specs = append(specs, assaySpec(1+rng.Int63n(1<<40), campaignTrials))
	}
	return specs
}

// Fleet workload: light multi-fault campaigns (k=3, ~14 us a trial)
// through the dispatcher, fleetTrials trials each at a nominal
// fleetTPS trials per second.
const (
	fleetTrials = 32768
	fleetTPS    = 40000
	fleetChunk  = 256
)

func multiSpec(seed int64, trials int) dispatch.Spec {
	return dispatch.Spec{Mode: "multi", K: 3, Trials: trials, Seed: seed}
}

func fleetSpecs(seed int64, seconds int) []dispatch.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []dispatch.Spec
	for n := blocks(seconds, fleetTrials*1000/fleetTPS); n > 0; n-- {
		specs = append(specs, multiSpec(1+rng.Int63n(1<<40), fleetTrials))
	}
	return specs
}
