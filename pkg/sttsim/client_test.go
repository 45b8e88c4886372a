package sttsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func newTestClient(t *testing.T, h http.Handler) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, WithRetry(4, time.Millisecond, 10*time.Millisecond), WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "host:8734"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted an invalid base URL", bad)
		}
	}
}

func TestSubmitValidatesBeforeSending(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	_, err := c.Submit(context.Background(), JobSpec{Scheme: "dram", Bench: "tpcc"})
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("Submit(bad spec) = %v, want *SpecError", err)
	}
	if calls.Load() != 0 {
		t.Errorf("invalid spec cost %d round trips, want 0", calls.Load())
	}
}

func TestSubmitRetriesBackpressure(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(APIError{Message: "queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateQueued})
	}))
	st, err := c.Submit(context.Background(), JobSpec{Scheme: "wb", Bench: "tpcc"})
	if err != nil {
		t.Fatalf("Submit = %v, want eventual success", err)
	}
	if st.ID != "j1" || calls.Load() != 3 {
		t.Errorf("got id=%q after %d calls, want j1 after 3", st.ID, calls.Load())
	}
}

func TestSubmitDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(APIError{Message: "unknown scheme"})
	}))
	// "sram" passes client-side validation; the server still rejects it.
	_, err := c.Submit(context.Background(), JobSpec{Scheme: "sram", Bench: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("Submit = %v, want *APIError 400", err)
	}
	if apiErr.Temporary() {
		t.Error("a 400 must not be Temporary")
	}
	if calls.Load() != 1 {
		t.Errorf("400 was retried: %d calls, want 1", calls.Load())
	}
}

func TestWaitPollsToTerminal(t *testing.T) {
	var polls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := JobStatus{ID: "j1", State: StateRunning}
		if polls.Add(1) >= 3 {
			st.State = StateDone
		}
		json.NewEncoder(w).Encode(st)
	}))
	st, err := c.Wait(context.Background(), "j1")
	if err != nil || st.State != StateDone {
		t.Fatalf("Wait = (%+v, %v), want done", st, err)
	}
	if polls.Load() < 3 {
		t.Errorf("Wait polled %d times, want >= 3", polls.Load())
	}
}

func TestResultReturnsRawBytes(t *testing.T) {
	payload := `{"Cycles":4242,"note":"exact bytes matter"}` + "\n"
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1/result" {
			t.Errorf("path = %s", r.URL.Path)
		}
		fmt.Fprint(w, payload)
	}))
	data, err := c.Result(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != payload {
		t.Errorf("Result = %q, want the server's exact bytes %q", data, payload)
	}
}

func TestReadyDecodesNotReadyPayload(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(Health{Status: "no workers", Mode: "coordinator"})
	}))
	h, err := c.Ready(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("Ready = %v, want *APIError 503", err)
	}
	if h.Status != "no workers" {
		t.Errorf("Ready payload = %+v, want the not-ready health body", h)
	}
}

// sseHandler scripts a job's /events feed: connection 1 emits two events and
// severs; connection 2 must carry Last-Event-ID: 2, answers a reconnect
// event and the terminal done.
func sseHandler(t *testing.T, sawResume *atomic.Bool) http.Handler {
	var conns atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1/events" {
			http.NotFound(w, r)
			return
		}
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		emit := func(id uint64, typ, data string) {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, typ, data)
			fl.Flush()
		}
		switch conns.Add(1) {
		case 1:
			emit(1, "status", `{"id":"j1","state":"running"}`)
			fmt.Fprint(w, ": ping\n\n") // keep-alive comment must be skipped
			emit(2, "progress", `{"cycle":1000,"total_cycles":2000,"percent":50}`)
			// Sever mid-stream: the client must reconnect with Last-Event-ID.
		default:
			if got := r.Header.Get("Last-Event-ID"); got != "2" {
				t.Errorf("reconnect carried Last-Event-ID %q, want 2", got)
			} else {
				sawResume.Store(true)
			}
			emit(4, "reconnect", `{"last_event_id":2,"latest_event_id":4,"missed_events":2}`)
			emit(5, "done", `{"id":"j1","state":"done","summary":"ok"}`)
		}
	})
}

func TestFollowResumesWithLastEventID(t *testing.T) {
	var sawResume atomic.Bool
	c, _ := newTestClient(t, sseHandler(t, &sawResume))

	var types []string
	var reconnect ReconnectEvent
	st, err := c.Follow(context.Background(), "j1", FollowOptions{}, func(ev Event) error {
		types = append(types, ev.Type)
		if ev.Type == "reconnect" {
			if err := json.Unmarshal(ev.Data, &reconnect); err != nil {
				t.Errorf("bad reconnect payload: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Follow = %v", err)
	}
	if st.State != StateDone || st.Summary != "ok" {
		t.Errorf("terminal status = %+v, want done/ok", st)
	}
	if !sawResume.Load() {
		t.Error("client never reconnected with Last-Event-ID: 2")
	}
	want := []string{"status", "progress", "reconnect", "done"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Errorf("event types = %v, want %v", types, want)
	}
	if reconnect.MissedEvents != 2 || reconnect.LatestEventID != 4 {
		t.Errorf("reconnect = %+v, want missed 2 / latest 4", reconnect)
	}
}

func TestFollowSurfacesCallbackError(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: status\ndata: {}\n\n")
	}))
	sentinel := errors.New("stop here")
	_, err := c.Follow(context.Background(), "j1", FollowOptions{}, func(Event) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Follow = %v, want the callback's error", err)
	}
}

func TestEventsRejectsUnknownJob(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(APIError{Message: "unknown job"})
	}))
	_, err := c.Events(context.Background(), "nope", 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("Events = %v, want *APIError 404", err)
	}
}
