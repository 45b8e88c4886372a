package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
)

// fakeResult builds a small deterministic result for a config.
func fakeResult(cfg sim.Config) *sim.Result {
	return &sim.Result{Config: cfg, Cycles: 4242, InstructionThroughput: 1.25}
}

// newTestServer wires a Server over a fast fake executor.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	eng := campaign.New(campaign.Policy{Jobs: 4})
	opts := Options{
		Engine:  eng,
		Version: "test",
		Run: func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			return fakeResult(cfg), nil
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Interrupt()
		eng.Drain()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &st)
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

const baseJob = `{"scheme":"stt4","bench":"milc","seed":7,"warmup_cycles":100,"measure_cycles":200}`

func TestSubmitRunsToCompletion(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, st := postJob(t, ts, baseJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Key == "" {
		t.Fatalf("missing id/key in %+v", st)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	res, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out sim.Result
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Cycles != 4242 {
		t.Fatalf("result cycles = %d, want 4242", out.Cycles)
	}
}

func TestHostileSpecsRejectedWith400(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	cases := []struct{ name, body string }{
		{"not json", `{{{`},
		{"unknown field", `{"scheme":"stt4","bench":"milc","bogus":1}`},
		{"unknown scheme", `{"scheme":"quantum","bench":"milc"}`},
		{"no workload", `{"scheme":"stt4"}`},
		{"bench and profiles", `{"scheme":"stt4","bench":"milc","profiles":[{"name":"x","l2_mpki":1}]}`},
		{"unknown bench", `{"scheme":"stt4","bench":"doom"}`},
		{"unknown tech", `{"scheme":"stt4","bench":"milc","tech_profile":"no-such-tech"}`},
		{"NaN literal", `{"scheme":"stt4","profiles":[{"name":"x","l2_mpki":NaN}]}`},
		{"negative regions", `{"scheme":"stt4","bench":"milc","regions":-4}`},
		{"bad region count", `{"scheme":"stt4","bench":"milc","regions":5}`},
		{"zero hops is fine but 99 is not", `{"scheme":"stt4","bench":"milc","hops":99}`},
		{"absurd cycles", `{"scheme":"stt4","bench":"milc","measure_cycles":999999999999}`},
		{"hostile profile rate", `{"scheme":"stt4","profiles":[{"name":"x","l2_mpki":1e308}]}`},
		{"too many profiles", func() string {
			var sb strings.Builder
			sb.WriteString(`{"scheme":"stt4","profiles":[`)
			for i := 0; i < 65; i++ {
				if i > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, `{"name":"p%d","l2_mpki":1}`, i)
			}
			sb.WriteString("]}")
			return sb.String()
		}()},
		{"tiny watchdog", `{"scheme":"stt4","bench":"milc","watchdog_cycles":3}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// None of them reached the engine or left residue.
	st := srv.Stats()
	if st.Engine.Executed != 0 || st.QueueDepth != 0 {
		t.Fatalf("hostile specs reached the engine: %+v", st)
	}
	// The daemon is still healthy and can run a real job.
	resp, job := postJob(t, ts, baseJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-hostility submit status = %d, want 202", resp.StatusCode)
	}
	if got := waitTerminal(t, ts, job.ID); got.State != StateDone {
		t.Fatalf("post-hostility job state = %s, want done", got.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	_, ts := newTestServer(t, func(o *Options) {
		o.MaxQueue = 1
		o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return fakeResult(cfg), nil
		}
	})
	resp1, st1 := postJob(t, ts, baseJob)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp1.StatusCode)
	}
	<-started
	// A different config (distinct seed) while the queue is at capacity.
	resp2, _ := postJob(t, ts, `{"scheme":"stt4","bench":"milc","seed":8,"warmup_cycles":100,"measure_cycles":200}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	close(release)
	if got := waitTerminal(t, ts, st1.ID); got.State != StateDone {
		t.Fatalf("first job state = %s, want done", got.State)
	}
}

func TestRateLimit(t *testing.T) {
	srv, ts := newTestServer(t, func(o *Options) {
		o.RatePerSec = 0.001
		o.RateBurst = 2
	})
	codes := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		resp, _ := postJob(t, ts, fmt.Sprintf(`{"scheme":"stt4","bench":"milc","seed":%d,"warmup_cycles":100,"measure_cycles":200}`, i))
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted || codes[2] != http.StatusTooManyRequests {
		t.Fatalf("codes = %v, want [202 202 429]", codes)
	}
	if srv.Stats().RateLimited != 1 {
		t.Fatalf("rate_limited = %d, want 1", srv.Stats().RateLimited)
	}
}

func TestCancelJob(t *testing.T) {
	release := make(chan struct{})
	cancelled := make(chan struct{})
	_, ts := newTestServer(t, func(o *Options) {
		o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			select {
			case <-ctx.Done():
				close(cancelled)
				return nil, ctx.Err()
			case <-release:
				return fakeResult(cfg), nil
			}
		}
	})
	defer close(release)
	_, st := postJob(t, ts, baseJob)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("run context was never cancelled")
	}
}

func TestPanickingRunIsIsolated(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, func(o *Options) {
		o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			if calls.Add(1) == 1 {
				panic("worker bomb")
			}
			return fakeResult(cfg), nil
		}
	})
	_, st1 := postJob(t, ts, baseJob)
	final := waitTerminal(t, ts, st1.ID)
	if final.State != StateFailed || final.Cause != "panic" {
		t.Fatalf("state/cause = %s/%s, want failed/panic", final.State, final.Cause)
	}
	// The daemon survives and executes the next (different) job.
	_, st2 := postJob(t, ts, `{"scheme":"stt4","bench":"milc","seed":9,"warmup_cycles":100,"measure_cycles":200}`)
	if got := waitTerminal(t, ts, st2.ID); got.State != StateDone {
		t.Fatalf("post-panic job state = %s, want done", got.State)
	}
}

func TestDedupAndCacheTiers(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	_, st1 := postJob(t, ts, baseJob)
	waitTerminal(t, ts, st1.ID)

	// Same config again: the memo finished it, so it answers at once.
	resp2, st2 := postJob(t, ts, baseJob)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat submit status = %d, want 200", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("repeat job = %+v, want immediate cache hit", st2)
	}
	stats := srv.Stats()
	if stats.Engine.Executed != 1 {
		t.Fatalf("executed = %d, want 1", stats.Engine.Executed)
	}
	if stats.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", stats.Cache.Hits)
	}

	// Byte-identical payloads for both clients.
	var bodies [2][]byte
	for i, id := range []string{st1.ID, st2.ID} {
		res, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], _ = io.ReadAll(res.Body)
		res.Body.Close()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the hit served a payload that differs from the original")
	}
}

// TestCacheCounters: /v1/stats counts every valid submission once, as a
// hit when the memo already finished its configuration and as a miss
// otherwise (fresh runs and in-flight joins alike).
func TestCacheCounters(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	_, st := postJob(t, ts, baseJob)
	waitTerminal(t, ts, st.ID)
	postJob(t, ts, baseJob)
	postJob(t, ts, baseJob)
	postJob(t, ts, `{"scheme":"quantum","bench":"milc"}`) // invalid: not counted
	c := srv.Stats().Cache
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 2 hits 1 miss", c)
	}
	if got, want := c.HitRatio, 2.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("hit ratio = %v, want %v", got, want)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Version != "test" {
		t.Fatalf("health = %+v, want ok/test", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining refuses new work with 503.
	resp2, _ := postJob(t, ts, baseJob)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp3.Body).Decode(&h)
	resp3.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("health status = %s, want draining", h.Status)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, func(o *Options) {
		o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return fakeResult(cfg), nil
		}
	})
	defer close(release)
	_, st := postJob(t, ts, baseJob)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running = %d, want 409", resp.StatusCode)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Type string
	Data string
}

// readSSE parses events off an SSE stream until the channel consumer stops.
func readSSE(r io.Reader, out chan<- sseEvent) {
	defer close(out)
	sc := bufio.NewScanner(r)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.Type != "":
			out <- ev
			ev = sseEvent{}
		}
	}
}

func TestSSEStreamsProgressAndDone(t *testing.T) {
	emit := make(chan struct{})
	release := make(chan struct{})
	_, ts := newTestServer(t, func(o *Options) {
		o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			if cfg.Obs == nil || cfg.Obs.Sink == nil {
				return nil, fmt.Errorf("streamed job arrived without an obs sink")
			}
			<-emit
			// Cross the snapshot period so the feed publishes.
			cfg.Obs.Sink.Emit(obs.Event{Type: obs.EvInject, Cycle: 500})
			cfg.Obs.Sink.Emit(obs.Event{Type: obs.EvDeliver, Cycle: 2100})
			cfg.Obs.OnSample(2100, []string{"noc.injected"}, []float64{42})
			<-release
			return fakeResult(cfg), nil
		}
	})
	_, st := postJob(t, ts, `{"scheme":"stt4","bench":"milc","seed":7,"warmup_cycles":100,"measure_cycles":200,"stream":true}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %s", ct)
	}
	events := make(chan sseEvent, 32)
	go readSSE(resp.Body, events)

	next := func() sseEvent {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("SSE stream ended early")
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for SSE event")
		}
		return sseEvent{}
	}

	// First event is always the status snapshot; only then is the hub
	// subscription guaranteed live, so only then may the run publish.
	if ev := next(); ev.Type != "status" {
		t.Fatalf("first event = %s, want status", ev.Type)
	}
	close(emit)

	var sawProgress, sawSample bool
	for !sawProgress || !sawSample {
		ev := next()
		switch ev.Type {
		case "progress":
			var p progressEvent
			if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
				t.Fatalf("bad progress payload %q: %v", ev.Data, err)
			}
			if p.Injected != 1 || p.Delivered != 1 {
				t.Fatalf("progress = %+v, want 1 injected 1 delivered", p)
			}
			sawProgress = true
		case "sample":
			var s sampleEvent
			if err := json.Unmarshal([]byte(ev.Data), &s); err != nil {
				t.Fatalf("bad sample payload %q: %v", ev.Data, err)
			}
			if s.Metrics["noc.injected"] != 42 {
				t.Fatalf("sample = %+v, want noc.injected=42", s)
			}
			sawSample = true
		case "status": // running transition — fine
		default:
			t.Fatalf("unexpected event %q before completion", ev.Type)
		}
	}
	close(release)
	for {
		ev := next()
		if ev.Type == "done" {
			var final JobStatus
			if err := json.Unmarshal([]byte(ev.Data), &final); err != nil {
				t.Fatal(err)
			}
			if final.State != StateDone {
				t.Fatalf("done event state = %s", final.State)
			}
			return
		}
	}
}

func TestStreamedResultMatchesUnstreamed(t *testing.T) {
	// A streamed run and a later identical unstreamed submission must serve
	// byte-identical payloads: the obs side channel never reaches the result.
	_, ts := newTestServer(t, nil)
	_, st1 := postJob(t, ts, `{"scheme":"stt4","bench":"milc","seed":7,"warmup_cycles":100,"measure_cycles":200,"stream":true}`)
	waitTerminal(t, ts, st1.ID)
	resp, st2 := postJob(t, ts, baseJob)
	if resp.StatusCode != http.StatusOK || !st2.CacheHit {
		t.Fatalf("unstreamed twin should cache-hit, got %d %+v", resp.StatusCode, st2)
	}
	if st1.Key != st2.Key {
		t.Fatalf("stream flag leaked into the fingerprint: %s vs %s", st1.Key, st2.Key)
	}
}

// TestListLimit: GET /v1/jobs?limit=N lists the N most recent jobs, clamps
// N to at least 1, and answers 400 to a limit that is not an integer
// instead of silently listing the default page or a prefix's worth.
func TestListLimit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		if resp, _ := postJob(t, ts, fmt.Sprintf(`{"scheme":"stt4","bench":"milc","seed":%d,"warmup_cycles":100,"measure_cycles":200}`, i+1)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
		}
	}
	list := func(query string) (int, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Jobs []JobStatus `json:"jobs"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, len(body.Jobs)
	}
	for _, tc := range []struct {
		query   string
		code, n int
	}{
		{"", http.StatusOK, 3},
		{"?limit=2", http.StatusOK, 2},
		{"?limit=0", http.StatusOK, 1},
		{"?limit=-4", http.StatusOK, 1},
		{"?limit=abc", http.StatusBadRequest, 0},
		{"?limit=5x", http.StatusBadRequest, 0},
	} {
		if code, n := list(tc.query); code != tc.code || n != tc.n {
			t.Errorf("GET /v1/jobs%s = %d with %d job(s), want %d with %d", tc.query, code, n, tc.code, tc.n)
		}
	}
}
