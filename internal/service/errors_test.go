package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/failpoint"
	"sttsim/internal/sim"
	api "sttsim/pkg/sttsim"
)

// doReq issues one request and decodes the error envelope (if any).
func doReq(t *testing.T, method, url, body string) (*http.Response, api.APIError) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope api.APIError
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &envelope)
	return resp, envelope
}

// TestErrorEnvelopes pins the error surface clients program against: status
// code, Retry-After header, and the uniform JSON envelope, across every
// rejection path of the public API.
func TestErrorEnvelopes(t *testing.T) {
	tests := []struct {
		name      string
		mutate    func(*Options)                                       // server options, nil = default
		prep      func(t *testing.T, srv *Server, ts *httptest.Server) // pre-request state
		method    string
		path      string // appended to ts.URL
		body      string
		wantCode  int
		wantMsg   string // substring of the envelope's error field
		wantRetry bool   // Retry-After header and retry_after_s must be set
	}{
		{
			name:   "unknown scheme is 400",
			method: http.MethodPost, path: "/v1/jobs",
			body:     `{"scheme":"dram","bench":"milc"}`,
			wantCode: http.StatusBadRequest, wantMsg: "unknown scheme",
		},
		{
			name:   "malformed JSON is 400",
			method: http.MethodPost, path: "/v1/jobs",
			body:     `{"scheme":`,
			wantCode: http.StatusBadRequest, wantMsg: "invalid job body",
		},
		{
			name:   "unknown field is 400",
			method: http.MethodPost, path: "/v1/jobs",
			body:     `{"scheme":"stt4","bench":"milc","bogus":1}`,
			wantCode: http.StatusBadRequest, wantMsg: "invalid job body",
		},
		{
			name:   "unknown job is 404",
			method: http.MethodGet, path: "/v1/jobs/nope",
			wantCode: http.StatusNotFound, wantMsg: "unknown job",
		},
		{
			name:   "unknown route is JSON 404",
			method: http.MethodGet, path: "/v1/nope",
			wantCode: http.StatusNotFound, wantMsg: "not found",
		},
		{
			name:   "wrong method is JSON 405",
			method: http.MethodDelete, path: "/v1/stats",
			wantCode: http.StatusMethodNotAllowed, wantMsg: "method not allowed",
		},
		{
			name:   "oversized body is 413",
			mutate: func(o *Options) { o.MaxBodyBytes = 64 },
			method: http.MethodPost, path: "/v1/jobs",
			body:     `{"scheme":"stt4","bench":"milc","seed":7,"warmup_cycles":100,"measure_cycles":200,"stream":false}`,
			wantCode: http.StatusRequestEntityTooLarge, wantMsg: "exceeds 64 bytes",
		},
		{
			name:   "rate limit is 429 with Retry-After",
			mutate: func(o *Options) { o.RatePerSec = 0.001; o.RateBurst = 1 },
			prep: func(t *testing.T, srv *Server, ts *httptest.Server) {
				// The limiter guards submissions only; spend the single burst
				// token on a first POST so the next one is refused.
				resp, _ := postJob(t, ts, baseJob)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("bucket-seeding submit answered %d", resp.StatusCode)
				}
			},
			method: http.MethodPost, path: "/v1/jobs",
			body:     baseJob,
			wantCode: http.StatusTooManyRequests, wantMsg: "rate limit",
			wantRetry: true,
		},
		{
			name: "full queue is 429 with Retry-After",
			mutate: func(o *Options) {
				o.MaxQueue = 1
				block := make(chan struct{}) // never closed; t.Cleanup kills via Interrupt
				o.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
					select {
					case <-block:
					case <-ctx.Done():
					}
					return nil, ctx.Err()
				}
			},
			prep: func(t *testing.T, srv *Server, ts *httptest.Server) {
				resp, _ := postJob(t, ts, baseJob) // occupies the single queue slot
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("queue-filling job answered %d", resp.StatusCode)
				}
			},
			method: http.MethodPost, path: "/v1/jobs",
			body:     `{"scheme":"stt4","bench":"milc","seed":99,"warmup_cycles":100,"measure_cycles":200}`,
			wantCode: http.StatusTooManyRequests, wantMsg: "queue is full",
			wantRetry: true,
		},
		{
			name: "draining is 503",
			prep: func(t *testing.T, srv *Server, ts *httptest.Server) {
				if err := srv.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
			method: http.MethodPost, path: "/v1/jobs",
			body:     baseJob,
			wantCode: http.StatusServiceUnavailable, wantMsg: "draining",
		},
		{
			name:   "result of a non-done job is 409",
			prep:   func(t *testing.T, srv *Server, ts *httptest.Server) {},
			method: http.MethodGet, path: "/v1/jobs/nope/result",
			wantCode: http.StatusNotFound, wantMsg: "unknown job",
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, tc.mutate)
			if tc.prep != nil {
				tc.prep(t, srv, ts)
			}
			resp, envelope := doReq(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if !strings.Contains(envelope.Message, tc.wantMsg) {
				t.Errorf("error = %q, want substring %q", envelope.Message, tc.wantMsg)
			}
			if tc.wantRetry {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("Retry-After header missing")
				}
				if envelope.RetryAfter < 1 {
					t.Errorf("retry_after_s = %d, want >= 1", envelope.RetryAfter)
				}
			}
		})
	}
}

// TestDegradedJournalRejectsNewJobs is the 503 row of the error surface that
// needs real journal state: after an injected ENOSPC degrades the journal,
// new submissions are refused with the degraded envelope while cached
// configurations keep serving.
func TestDegradedJournalRejectsNewJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	script := failpoint.NewDiskScript(1)
	script.ENOSPCAfterWrites = 1
	jrn, err := campaign.OpenJournalWith(path, false, campaign.JournalOptions{
		FS: &failpoint.FaultFS{Inner: failpoint.OSFS{}, Script: script},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jrn.Close()

	_, ts := newTestServer(t, func(o *Options) {
		o.Journal = jrn
		o.Engine.AttachJournal(jrn)
	})

	// First job journals cleanly; the second one's terminal append hits the
	// injected ENOSPC and degrades the journal.
	resp, stA := postJob(t, ts, baseJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job A answered %d, want 202", resp.StatusCode)
	}
	waitTerminal(t, ts, stA.ID)
	resp, stB := postJob(t, ts, `{"scheme":"stt4","bench":"milc","seed":8,"warmup_cycles":100,"measure_cycles":200}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job B answered %d, want 202", resp.StatusCode)
	}
	waitTerminal(t, ts, stB.ID)
	deadline := time.Now().Add(5 * time.Second)
	for jrn.Degraded() == nil {
		if time.Now().After(deadline) {
			t.Fatal("journal never degraded after the injected ENOSPC")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp2, envelope := doReq(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"scheme":"stt4","bench":"milc","seed":9,"warmup_cycles":100,"measure_cycles":200}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with degraded journal = %d, want 503", resp2.StatusCode)
	}
	if !strings.Contains(envelope.Message, "journal degraded") {
		t.Errorf("error = %q, want the degraded-journal envelope", envelope.Message)
	}

	// The already-completed configuration still serves from the memo.
	resp3, st := postJob(t, ts, baseJob)
	if resp3.StatusCode != http.StatusOK || !st.CacheHit {
		t.Errorf("cached resubmit = (%d, hit=%v), want 200 cache hit", resp3.StatusCode, st.CacheHit)
	}
}

// TestServiceTypesAreSDKTypes pins at compile time that the server marshals
// the very structs the SDK decodes. Assignability both ways only holds for
// true aliases.
func TestServiceTypesAreSDKTypes(t *testing.T) {
	var _ api.JobStatus = JobStatus{}
	var _ JobSpec = api.JobSpec{}
	var _ api.Stats = Stats{}
	var _ api.Health = Health{}
	var _ api.CacheStats = CacheStats{}
	if reflect.TypeOf(JobStatus{}) != reflect.TypeOf(api.JobStatus{}) {
		t.Fatal("service.JobStatus is not an alias of sttsim.JobStatus")
	}
}
