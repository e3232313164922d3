// Command layerbench is the repository's benchmark. It times the
// public entry points of each layer from outside, over four seeded
// workloads (compile, serve, campaign, fleet), and prints one JSON
// result line whose metrics are named in BENCHMARK.json at the
// repository root. See README.md in this directory for the workloads,
// the metrics and the steadiness rules they follow.
//
// Run it from the repository root:
//
//	bash layerbench/run.sh --workload compile --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans
// around every layer call and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile, serve, campaign or fleet")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same op list")
	seconds := fs.Int("seconds", 15, "nominal length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "layerbench"), "directory for run records and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *seconds > 600 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "layerbench: need --workload compile|serve|campaign|fleet, --seconds 1..600, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := newBench(*seed, *seconds, work)
	if *trace == 0 {
		err = b.measure(w)
	} else {
		err = b.measureLayers(w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "layerbench: check failed:", p)
	}

	record := b.record(w.name, *trace)
	stem := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := writeJSON(stem+".json", record); err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	if *trace == 1 {
		for path, tr := range map[string]*tracer{stem + ".loop.jsonl": b.loopTr, stem + ".layers.jsonl": b.tr} {
			if err := tr.write(path); err != nil {
				fmt.Fprintln(stderr, "layerbench:", err)
				return 1
			}
		}
	}
	ctx, err := json.Marshal(map[string]any{"host": record.Host, "calib": record.Calib, "raw": record.Raw})
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	line, err := json.Marshal(result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", ctx, line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark process.
type bench struct {
	seed    int64
	seconds int
	work    string // scratch directory, removed at exit
	cal     *calibrator
	ref     *refMix // reference steps run between timed windows
	tr      *tracer // nil while untraced
	loopTr  *tracer // the traced timed phase of a traced run

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	raw               map[string]float64 // unscaled timings beside the scaled metrics
	peakRSSMB         float64            // at the end of the timed phase
}

func newBench(seed int64, seconds int, work string) *bench {
	return &bench{
		seed: seed, seconds: seconds, work: work,
		cal:     newCalibrator(),
		metrics: map[string]metric{},
		raw:     map[string]float64{},
	}
}

// maxProblems bounds the failure descriptions kept for the record.
const maxProblems = 20

// ops counts n attempted ops of which failed did not pass their
// correctness check; what describes the first failure.
func (b *bench) ops(n, failed int, what string, args ...any) {
	b.attempted += n
	b.failed += failed
	if failed > 0 && len(b.problems) < maxProblems {
		b.problems = append(b.problems, fmt.Sprintf(what, args...))
	}
}

// op counts one op that passed its check when ok.
func (b *bench) op(ok bool, what string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	b.ops(1, failed, what, args...)
}

// refuse records a metric that could not be reported honestly; the
// run is then not correct.
func (b *bench) refuse(name string, err error) {
	b.problems = append(b.problems, fmt.Sprintf("metric %s refused: %v", name, err))
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{v, unit} }

// timing sets a calibrated timing and keeps its unscaled value.
func (b *bench) timing(name, unit string, scaled, raw float64) {
	b.set(name, unit, scaled)
	b.raw[name] = raw
}

// samples holds per-op latencies in ms with the calibration window
// of cal each was taken in.
type samples struct {
	cal *calibrator
	raw []float64
	win []calWindow
}

func (s *samples) add(rawMS float64, win calWindow) {
	s.raw = append(s.raw, rawMS)
	s.win = append(s.win, win)
}

// scaled returns the latencies in reference-host ms.
func (s *samples) scaled() []float64 {
	out := make([]float64, len(s.raw))
	for i, ms := range s.raw {
		out[i] = ms * s.cal.factor(s.win[i])
	}
	return out
}

// p50 sets name to the calibrated median of s.
func (b *bench) p50(name string, s *samples) {
	if s == nil || len(s.raw) < 2 {
		b.refuse(name, fmt.Errorf("fewer than 2 samples"))
		return
	}
	b.timing(name, "ms", median(s.scaled()), median(s.raw))
}

// tail sets name to the calibrated pct-th percentile of s, or refuses
// it when too few samples lie beyond.
func (b *bench) tail(name string, s *samples, pct int) {
	if s == nil {
		b.refuse(name, fmt.Errorf("no samples"))
		return
	}
	scaled, err := percentile(s.scaled(), pct)
	if err != nil {
		b.refuse(name, err)
		return
	}
	raw, err := percentile(s.raw, pct)
	if err != nil {
		b.refuse(name, err)
		return
	}
	b.timing(name, "ms", scaled, raw)
}

// phase is the outcome of one timed phase.
type phase struct {
	ops     int     // completed ops: compiles, requests or trials
	windows samples // wall time of each timed window
	quality float64
	classes map[string]*samples
}

func newPhase(c *calibrator) *phase {
	return &phase{windows: samples{cal: c}, classes: map[string]*samples{}}
}

// add records one op latency of the given class.
func (p *phase) add(class string, rawMS float64, win calWindow) {
	s := p.classes[class]
	if s == nil {
		s = &samples{cal: p.windows.cal}
		p.classes[class] = s
	}
	s.add(rawMS, win)
}

// window accounts a timed window of rawMS milliseconds.
func (p *phase) window(rawMS float64, win calWindow) { p.windows.add(rawMS, win) }

// throughput is ops per second of timed windows, calibrated and raw.
func (p *phase) throughput() (scaled, raw float64) {
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / 1000
	}
	return float64(p.ops) / sum(p.windows.scaled()), float64(p.ops) / sum(p.windows.raw)
}

// A workload sets up sessions: one instance of its op list and of the
// services it runs against, ready for the timed phase.
type workload struct {
	name string
	// native are the latency classes the workload measures itself;
	// the reference mix measures the rest (see refmix.go).
	native []string
	setup  func(b *bench, seconds int) (session, error)
}

type session interface {
	run(b *bench) (*phase, error)
	close() error
}

var workloads = map[string]workload{
	"compile":  {"compile", []string{"sa", "twostage"}, setupCompile},
	"serve":    {"serve", []string{"hit", "miss"}, setupServe},
	"campaign": {"campaign", nil, setupCampaign},
	"fleet":    {"fleet", nil, setupFleet},
}

// setupTimed sets w up setupReps times and keeps the last session,
// returning the set-up times.
func (b *bench) setupTimed(w workload, seconds int) (session, *samples, error) {
	var s session
	setups := &samples{cal: b.cal}
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		var err error
		var ms float64
		f := b.cal.window(func() {
			t0 := time.Now()
			s, err = w.setup(b, seconds)
			if err == nil {
				runtime.GC()
			}
			ms = msSince(t0)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(ms, f)
	}
	return s, setups, nil
}

// latencyClasses are the op classes behind the latency metrics.
var latencyClasses = []string{"sa", "twostage", "hit", "miss"}

// window runs f as timed window i of the n in a timed phase, then any
// reference steps due, and returns f's calibration handle. A GC before
// each window keeps garbage from earlier work out of it.
func (b *bench) window(i, n int, f func()) calWindow {
	runtime.GC()
	w := b.cal.window(f)
	if b.ref != nil {
		b.ref.stepDue(b, i, n)
	}
	return w
}

// measure is an untraced run: the end-to-end metrics.
func (b *bench) measure(w workload) error {
	s, setups, err := b.setupTimed(w, b.seconds)
	if err != nil {
		return err
	}
	var missing []string
	for _, c := range latencyClasses {
		if !slices.Contains(w.native, c) {
			missing = append(missing, c)
		}
	}
	if b.ref, err = b.newRefMix(missing); err != nil {
		return errors.Join(fmt.Errorf("reference mix: %w", err), s.close())
	}
	ph, err := s.run(b)
	b.peakRSSMB = peakRSSMB()
	if err == nil {
		b.ref.finish(b)
	}
	if err := errors.Join(err, s.close(), b.ref.stop()); err != nil {
		return err
	}

	// Every calibration round is in: scale.
	b.timing("setup_s", "s", median(setups.scaled())/1000, median(setups.raw)/1000)
	scaled, raw := ph.throughput()
	b.timing("throughput_per_s", "1/s", scaled, raw)
	b.set("quality", "ratio", ph.quality)
	cls := func(c string) *samples {
		if s := ph.classes[c]; s != nil {
			return s
		}
		return b.ref.classes[c]
	}
	b.p50("sa_ms_p50", cls("sa"))
	b.p50("twostage_ms_p50", cls("twostage"))
	b.p50("hit_ms_p50", cls("hit"))
	b.tail("hit_ms_p99", cls("hit"), 99)
	b.p50("miss_ms_p50", cls("miss"))
	return nil
}

// measureLayers is a traced run: the workload's timed phase untraced
// and then traced (over half the run length each, for
// bench.trace_overhead), followed by the layer suite under a tracer of
// its own, whose spans give every per-layer metric.
func (b *bench) measureLayers(w workload) error {
	half := (b.seconds + 1) / 2
	var phases [2]*phase
	for i := range phases {
		if i == 1 {
			b.tr = newTracer()
		}
		s, err := w.setup(b, half)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		end := b.tr.section("loop." + w.name)
		ph, err := s.run(b)
		end()
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		phases[i] = ph
	}
	untraced, _ := phases[0].throughput()
	traced, _ := phases[1].throughput()
	b.set("bench.trace_overhead", "ratio", untraced/traced)
	b.loopTr, b.tr = b.tr, newTracer()
	if err := b.layerSuite(); err != nil {
		return fmt.Errorf("layer suite: %w", err)
	}
	b.set("host.calib_ms", "ms", median(b.cal.rounds))
	b.set("host.calib_spread", "ratio", quartileSpread(b.cal.rounds))
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRecord is the full record of a run, written beside the result.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Host     hostInfo           `json:"host"`
	Calib    calibInfo          `json:"calib"`
	Metrics  map[string]metric  `json:"metrics"`
	Raw      map[string]float64 `json:"raw"`
	Problems []string           `json:"problems,omitempty"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// PeakRSSMB is the process's peak RSS at the end of an untraced
	// timed phase. It is context, not a metric: see README.md.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
}

type calibInfo struct {
	RefMS    float64   `json:"ref_ms"`
	MedianMS float64   `json:"median_ms"`
	Spread   float64   `json:"spread"`
	RoundsMS []float64 `json:"rounds_ms"`
}

func (b *bench) record(name string, trace int) runRecord {
	return runRecord{
		Workload: name, Seed: b.seed, Seconds: b.seconds, Trace: trace,
		Host: hostInfo{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			PeakRSSMB: b.peakRSSMB,
		},
		Calib:   b.cal.info(),
		Metrics: b.metrics, Raw: b.raw, Problems: b.problems,
	}
}

func (c *calibrator) info() calibInfo {
	return calibInfo{
		RefMS: calibRefMS, MedianMS: median(c.rounds),
		Spread: quartileSpread(c.rounds), RoundsMS: c.rounds,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
