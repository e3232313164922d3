package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded layer call (or a batch of N identical calls).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"par,omitempty"`
	Name   string `json:"name"`
	N      int    `json:"n"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into each layer
// and keeps them in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int64 // the open section: parent of every span begun in it
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the returned function closes it.
func (tr *tracer) begin(name string) func() { return tr.beginN(name, 1) }

// beginN opens a span covering n identical calls.
func (tr *tracer) beginN(name string, n int) func() {
	if tr == nil {
		return func() {}
	}
	start := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: tr.cur, Name: name, N: n, Start: start, End: -1})
	tr.mu.Unlock()
	return func() {
		end := time.Since(tr.t0).Nanoseconds()
		tr.mu.Lock()
		tr.spans[id-1].End = end
		tr.mu.Unlock()
	}
}

// section opens a span that parents every span begun until it closes.
// Sections run one after another, never nested.
func (tr *tracer) section(name string) func() {
	if tr == nil {
		return func() {}
	}
	end := tr.begin(name)
	tr.mu.Lock()
	tr.cur = int64(len(tr.spans))
	tr.mu.Unlock()
	return func() {
		end()
		tr.mu.Lock()
		tr.cur = 0
		tr.mu.Unlock()
	}
}

// perCall returns, for every closed span with the given name, its
// duration divided by its call count, in milliseconds.
func (tr *tracer) perCall(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6/float64(s.N))
		}
	}
	return out
}

// write stores the spans as JSONL.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
