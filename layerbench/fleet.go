package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/dispatch"
	"dmfb/internal/telemetry"
)

// fleet: a dispatcher with a durable state directory behind a loopback
// listener, two in-process simd workers (one trial goroutine each,
// sharing one Builder), and light multi-fault campaigns submitted
// through dispatch.Client and timed from submit to summary. Trials are
// so cheap that leases, result posts, the merge and the result log
// dominate.

const (
	fleetWorkers = 2
	// fleetLeaseTTL sets the workers' idle poll to TTL/20 = 50 ms, the
	// most a new campaign waits for its first lease.
	fleetLeaseTTL = time.Second
	// fleetWaitPoll is how often the submitter polls for completion.
	fleetWaitPoll = 2 * time.Millisecond
	// fleetWarmTrials is the size of the set-up campaign.
	fleetWarmTrials = 4096
)

type fleetSession struct {
	specs   []dispatch.Spec
	d       *dispatch.Dispatcher
	reg     *telemetry.Registry
	hs      *http.Server
	served  chan error
	cancel  context.CancelFunc
	workers sync.WaitGroup
	werrs   chan error
	client  *dispatch.Client
	rec     *recorder
	rpc     *rpcTimer // nil while untraced
}

func setupFleet(b *bench, seconds int) (session, error) {
	return startFleet(b, fleetSpecs(b.seed, seconds))
}

func startFleet(b *bench, specs []dispatch.Spec) (*fleetSession, error) {
	dir, err := os.MkdirTemp(b.work, "fleet-")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	d, err := dispatch.New(dispatch.Options{StateDir: dir, Chunk: fleetChunk, LeaseTTL: fleetLeaseTTL, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s := &fleetSession{
		specs: specs, d: d, reg: reg,
		hs:     &http.Server{Handler: d.Handler()},
		served: make(chan error, 1),
		cancel: cancel,
		werrs:  make(chan error, fleetWorkers),
		client: dispatch.NewClient(url, &http.Client{Transport: &http.Transport{}}),
		rec:    newRecorder(false),
	}
	go func() { s.served <- s.hs.Serve(ln) }()

	// The Build override wraps every trial function in the recorder.
	builder := &dispatch.Builder{Build: func(ctx context.Context, sp dispatch.Spec) (*dispatch.Built, error) {
		built, err := sp.Build(ctx, dispatch.BuildOptions{Tool: "layerbench"})
		if err != nil {
			return nil, err
		}
		built.Fn = s.rec.wrap(built.Fn)
		return built, nil
	}}
	var hc *http.Client
	if b.tr != nil {
		s.rpc = &rpcTimer{base: &http.Transport{MaxIdleConnsPerHost: fleetWorkers}, tr: b.tr}
		hc = &http.Client{Transport: s.rpc}
	}
	for w := 0; w < fleetWorkers; w++ {
		s.workers.Add(1)
		go func(w int) {
			defer s.workers.Done()
			s.werrs <- dispatch.RunWorker(ctx, dispatch.WorkerOptions{
				Name: fmt.Sprintf("w%d", w+1), Dispatcher: url, Workers: 1,
				Builder: builder, HTTPClient: hc,
			})
		}(w)
	}
	if _, err := s.runOne(b, multiSpec(-1, fleetWarmTrials)); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// runOne submits one campaign, waits for it and checks the merged
// summary bytes against the recorded outcomes. It returns the trials
// that survived.
func (s *fleetSession) runOne(b *bench, sp dispatch.Spec) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	end := b.tr.begin("dispatch.campaign")
	sub, err := s.client.Submit(ctx, sp)
	if err != nil {
		end()
		return 0, fmt.Errorf("submit: %w", err)
	}
	st, err := s.client.Wait(ctx, sub.ID, fleetWaitPoll)
	if err != nil {
		end()
		return 0, fmt.Errorf("wait %s: %w", sub.ID, err)
	}
	got, err := s.client.Summary(ctx, sub.ID)
	end()
	if err != nil {
		return 0, fmt.Errorf("summary %s: %w", sub.ID, err)
	}
	want, results, rerr := s.rec.summary(sp)
	survived := 0
	for _, r := range results {
		if r.Survived {
			survived++
		}
	}
	failed := 0
	if st.State != "done" || rerr != nil || !bytes.Equal(append(want, '\n'), got) {
		failed = sp.Trials
	}
	b.ops(sp.Trials, failed, "fleet campaign seed %d: state %s, summary matches recorded outcomes: %v (%v)",
		sp.Seed, st.State, bytes.Equal(append(want, '\n'), got), rerr)
	return survived, nil
}

func (s *fleetSession) run(b *bench) (*phase, error) {
	ph := newPhase(b.cal)
	survived := 0
	for i, sp := range s.specs {
		var n int
		var err error
		var ms float64
		f := b.window(i, len(s.specs), func() {
			t0 := time.Now()
			n, err = s.runOne(b, sp)
			ms = msSince(t0)
		})
		if err != nil {
			return nil, err
		}
		survived += n
		ph.ops += sp.Trials
		ph.window(ms, f)
	}
	ph.quality = float64(survived) / float64(ph.ops)
	return ph, nil
}

// close stops the workers, then the listener, then the dispatcher, and
// waits for each.
func (s *fleetSession) close() error {
	s.cancel()
	s.workers.Wait()
	close(s.werrs)
	var errs []error
	for err := range s.werrs {
		errs = append(errs, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs = append(errs, s.hs.Shutdown(ctx))
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.d.Close())
	return errors.Join(errs...)
}

// rpcTimer is the workers' http.RoundTripper in traced runs: it
// records a span per dispatcher RPC, from send to body close, named
// by endpoint.
type rpcTimer struct {
	base    http.RoundTripper
	tr      *tracer
	busy    atomic.Int64 // ns spent in RPCs
	granted atomic.Int64 // leases handed out
}

func rpcName(path string) string {
	switch {
	case strings.HasSuffix(path, "/heartbeat"):
		return "rpc.heartbeat"
	case path == "/v1/lease":
		return "rpc.lease"
	case path == "/v1/results":
		return "rpc.results"
	}
	return "rpc.other"
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	end := t.tr.begin(rpcName(req.URL.Path))
	done := func() {
		end()
		t.busy.Add(time.Since(t0).Nanoseconds())
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	if req.URL.Path == "/v1/lease" && resp.StatusCode == http.StatusOK {
		t.granted.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// timedBody ends an RPC's span when its body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
