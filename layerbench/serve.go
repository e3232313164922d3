package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/server"
	"dmfb/internal/telemetry"
)

// serve: two closed-loop clients posting /v1/compile to a
// server.New(Workers: 2) behind a real loopback listener. Most requests
// hit the working set warmed during set-up; a fixed share are distinct
// default-SA compiles that always miss.

const serveClients = 2

// liveServer is a compile server on a loopback listener.
type liveServer struct {
	srv    *server.Server
	reg    *telemetry.Registry
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	ls := &liveServer{
		srv:    server.New(server.Options{Workers: serveClients, Metrics: reg}),
		reg:    reg,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/compile",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// reply is one /v1/compile round trip, timed from send to the last
// body byte.
type reply struct {
	status int
	cache  string // X-Dmfb-Cache
	body   []byte
	ms     float64
	err    error
}

func (ls *liveServer) post(body []byte) reply {
	t0 := time.Now()
	resp, err := ls.client.Post(ls.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, ms: msSince(t0)}
	}
	data, err := io.ReadAll(resp.Body)
	ms := msSince(t0)
	resp.Body.Close()
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Dmfb-Cache"), body: data, ms: ms, err: err}
}

// postAll sends len(out) requests from serveClients closed-loop
// clients, each taking the next request when its last reply is in.
// req(i) gives request i's body and span name; its reply lands in
// out[i].
func (ls *liveServer) postAll(b *bench, out []reply, req func(i int) ([]byte, string)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out) {
					return
				}
				body, name := req(i)
				end := b.tr.begin(name)
				out[i] = ls.post(body)
				end()
			}
		}()
	}
	wg.Wait()
}

func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := ls.srv.Drain(ctx); err == nil {
		err = derr
	}
	ls.client.CloseIdleConnections()
	return err
}

// warm compiles each body once, expecting a miss, and returns the
// first response bodies: every later hit must match them byte for
// byte.
func (ls *liveServer) warm(b *bench, bodies [][]byte) [][]byte {
	first := make([][]byte, len(bodies))
	for i, body := range bodies {
		r := ls.post(body)
		b.op(r.err == nil && r.status == http.StatusOK && r.cache == "miss",
			"warming body %d: status %d cache %q err %v", i, r.status, r.cache, r.err)
		first[i] = r.body
	}
	return first
}

type serveSession struct {
	ops   serveOps
	ls    *liveServer
	first [][]byte
}

// serveWarmHits is how many hits set-up sends per working-set body.
const serveWarmHits = 64

func setupServe(b *bench, seconds int) (session, error) {
	ops := makeServeOps(b.seed, seconds)
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	s := &serveSession{ops: ops, ls: ls}
	s.first = ls.warm(b, ops.Bodies[:serveWorking])
	for i := 0; i < serveWarmHits*serveWorking; i++ {
		k := i % serveWorking
		r := ls.post(ops.Bodies[k])
		b.op(s.check(k, r), "warm-up hit on body %d: status %d cache %q err %v", k, r.status, r.cache, r.err)
	}
	return s, nil
}

// check validates a reply: a working-set body must be a hit
// byte-identical to its first response, any other body a miss.
func (s *serveSession) check(k int, r reply) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if k < serveWorking {
		return r.cache == "hit" && bytes.Equal(r.body, s.first[k])
	}
	return r.cache == "miss"
}

func (s *serveSession) run(b *bench) (*phase, error) {
	ph := newPhase(b.cal)
	hits := 0
	replies := make([]reply, serveWindow)
	for lo := 0; lo < len(s.ops.Reqs); lo += serveWindow {
		reqs := s.ops.Reqs[lo : lo+serveWindow]
		var winMS float64
		f := b.window(lo/serveWindow, len(s.ops.Reqs)/serveWindow, func() {
			t0 := time.Now()
			s.ls.postAll(b, replies, func(i int) ([]byte, string) {
				if k := reqs[i]; k >= serveWorking {
					return s.ops.Bodies[k], "http.compile/miss"
				}
				return s.ops.Bodies[reqs[i]], "http.compile/hit"
			})
			winMS = msSince(t0)
		})
		failed := 0
		for i, r := range replies {
			k := reqs[i]
			if !s.check(k, r) {
				failed++
				continue
			}
			if r.cache == "hit" {
				hits++
				ph.add("hit", r.ms, f)
			} else {
				ph.add("miss", r.ms, f)
			}
		}
		b.ops(len(reqs), failed, "serve window at request %d: %d replies failed their check", lo, failed)
		ph.ops += len(reqs)
		ph.window(winMS, f)
	}
	ph.quality = float64(hits) / float64(len(s.ops.Reqs))
	return ph, nil
}

func (s *serveSession) close() error { return s.ls.stop() }
