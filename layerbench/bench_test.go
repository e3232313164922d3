package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		ok     bool
		want   float64
	}{
		{999, 99, false, 0},
		{1000, 99, true, 990},
		{99, 90, false, 0},
		{100, 90, true, 90},
		{19, 50, false, 0},
		{20, 50, true, 10},
	} {
		got, err := percentile(seq(tc.n), tc.pct)
		if tc.ok != (err == nil) {
			t.Fatalf("p%d of %d samples: err = %v, want ok=%v", tc.pct, tc.n, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("p%d of %d samples = %v, want %v", tc.pct, tc.n, got, tc.want)
		}
	}
}

func TestTailMetricRefusedNotEmitted(t *testing.T) {
	b := newBench(1, 1, t.TempDir())
	s := &samples{cal: b.cal}
	for i := 0; i < 500; i++ {
		s.add(float64(i), calWindow{})
	}
	b.tail("hit_ms_p99", s, 99)
	if _, ok := b.metrics["hit_ms_p99"]; ok {
		t.Fatal("p99 of 500 samples was emitted")
	}
	if len(b.problems) != 1 || !strings.Contains(b.problems[0], "hit_ms_p99") {
		t.Fatalf("refusal not recorded as a problem: %q", b.problems)
	}
}

func TestCalibrationScaling(t *testing.T) {
	if f := scaleFactor(calibRefMS); f != 1 {
		t.Fatalf("nominal host: factor %v, want 1", f)
	}
	// A host running the kernel twice as slow halves every timing.
	if f := scaleFactor(2 * calibRefMS); f != 0.5 {
		t.Fatalf("half-speed host: factor %v, want 0.5", f)
	}

	c := newCalibrator()
	ran := false
	w := c.window(func() { ran = true })
	if !ran || len(c.rounds) != 2 || w.From < c.at[0] || w.To > c.at[1] {
		t.Fatalf("window ran=%v over %v with rounds at %v; want a round on each side", ran, w, c.at)
	}
	if c.window(func() {}); len(c.rounds) != 3 {
		t.Fatalf("back-to-back windows share a round: got %d rounds, want 3", len(c.rounds))
	}

	// A window is scaled by the median round within calibSmoothMS of
	// it, so one jittery round moves nothing and distant rounds do not
	// count.
	far := 10.0 * calibSmoothMS
	c.rounds = []float64{8, 8, 16, 8, 4, 4, 4, 4}
	c.at = []float64{0, 100, 200, 300, far, far + 100, far + 200, far + 300}
	for _, tc := range []struct {
		w       calWindow
		roundMS float64
	}{
		{calWindow{110, 190}, 8},
		{calWindow{210, 290}, 8},
		{calWindow{far + 110, far + 190}, 4},
		// Only the rounds at 300 and far lie within reach.
		{calWindow{300 + calibSmoothMS, far - calibSmoothMS}, 6},
	} {
		if f := c.factor(tc.w); f != calibRefMS/tc.roundMS {
			t.Fatalf("factor(%v) = %v, want %v", tc.w, f, calibRefMS/tc.roundMS)
		}
	}
	s := &samples{cal: c}
	s.add(10, calWindow{110, 190})
	s.add(10, calWindow{far + 110, far + 190})
	if got := s.scaled(); got[0] != 10*calibRefMS/8 || got[1] != 20*calibRefMS/8 {
		t.Fatalf("scaled %v, want %v and %v", got, 10*calibRefMS/8, 20*calibRefMS/8)
	}
}

func TestOpListsDeterministic(t *testing.T) {
	lists := func(seed int64) []byte {
		data, err := json.Marshal([]any{
			compileOps(seed, 15), makeServeOps(seed, 15), campaignSpecs(seed, 15), fleetSpecs(seed, 15),
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := lists(7), lists(7); !bytes.Equal(a, b) {
		t.Fatal("seed 7 gave two different op lists")
	}
	if bytes.Equal(lists(7), lists(8)) {
		t.Fatal("seeds 7 and 8 gave the same op lists")
	}

	ops := makeServeOps(7, 15)
	seen := map[string]bool{}
	for _, body := range ops.Bodies {
		if seen[string(body)] {
			t.Fatalf("body %s appears twice: a miss could hit", body)
		}
		seen[string(body)] = true
	}
	if len(ops.Reqs)%serveWindow != 0 {
		t.Fatalf("%d requests is not whole windows", len(ops.Reqs))
	}
	misses := 0
	for i, k := range ops.Reqs {
		if k >= serveWorking {
			misses++
			if i%serveWindow >= serveWindow*9/10 {
				t.Fatalf("miss at request %d lies in the last tenth of its window", i)
			}
		}
	}
	if want := len(ops.Reqs) / serveWindow * serveMisses; misses != want || len(ops.Bodies) != serveWorking+want {
		t.Fatalf("%d misses over %d bodies, want %d misses", misses, len(ops.Bodies), want)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// runLast runs the benchmark and decodes its last output line.
func runLast(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "--out", t.TempDir()), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not correct: %+v\n%s", res, stderr.String())
	}
	return res
}

func checkNames(t *testing.T, got map[string]metric, want []string) {
	t.Helper()
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("run emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
}

func TestRunsEmitEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	endToEnd, perLayer := benchmarkNames(t)
	res := runLast(t, "--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0")
	checkNames(t, res.Metrics, endToEnd)
	res = runLast(t, "--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "1")
	checkNames(t, res.Metrics, perLayer)
}
