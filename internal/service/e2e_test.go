package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/dist"
	"sttsim/internal/sim"
)

// e2eSpec is small enough for a real run to finish in well under a second
// but exercises the full simulator (64-tile mesh, STT 4-TSB scheme).
const e2eSpec = `{"scheme":"stt4","bench":"milc","seed":11,"warmup_cycles":100,"measure_cycles":300}`

// TestE2EDedupRestartAcceptance is the PR's acceptance test: N concurrent
// identical submissions execute the simulation exactly once and every client
// receives byte-identical results; /v1/stats accounts the other N-1 as
// cache/memo hits; and a restarted daemon preloaded from the checkpoint
// journal serves the same configuration without re-executing it.
func TestE2EDedupRestartAcceptance(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	jrn, err := campaign.OpenJournalWith(journalPath, false, campaign.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Policy{Jobs: 4, RunTimeout: 2 * time.Minute})
	eng.AttachJournal(jrn)
	srv, err := NewServer(Options{Engine: eng, Version: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: N concurrent identical submissions.
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJob(t, ts, e2eSpec)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}

	// Exactly one execution; the other N-1 were cache or memo hits.
	stats := srv.Stats()
	if stats.Engine.Executed != 1 {
		t.Fatalf("executed = %d, want exactly 1", stats.Engine.Executed)
	}
	if got := stats.Cache.Hits + stats.Engine.MemoHits; got != n-1 {
		t.Fatalf("cache+memo hits = %d (cache %d, memo %d), want %d",
			got, stats.Cache.Hits, stats.Engine.MemoHits, n-1)
	}

	// Every client receives byte-identical result payloads.
	var canonical []byte
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %d: status %d", i, resp.StatusCode)
		}
		if canonical == nil {
			canonical = body
		} else if !bytes.Equal(canonical, body) {
			t.Fatalf("client %d received a result differing from client 0", i)
		}
	}
	if len(canonical) == 0 {
		t.Fatal("empty result payload")
	}

	// Shut the first daemon down cleanly; the journal holds the verdict.
	eng.Drain()
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart. A fresh engine preloaded from the journal must serve
	// the same configuration from its memo, executing nothing.
	recs, _, err := campaign.LoadJournalFS(nil, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("journal is empty after a completed run")
	}
	eng2 := campaign.New(campaign.Policy{Jobs: 4})
	defer func() {
		eng2.Interrupt()
		eng2.Drain()
	}()
	srv2, err := NewServer(Options{Engine: eng2, Version: "e2e-restarted"})
	if err != nil {
		t.Fatal(err)
	}
	if warmed := eng2.Preload(recs); warmed != 1 {
		t.Fatalf("preloaded %d results from journal, want 1", warmed)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, st := postJob(t, ts2, e2eSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted submit status = %d, want 200 (cache hit)", resp.StatusCode)
	}
	if !st.CacheHit || st.State != StateDone {
		t.Fatalf("restarted job = %+v, want immediate cache hit", st)
	}
	if got := srv2.Stats().Engine.Executed; got != 0 {
		t.Fatalf("restarted daemon executed %d runs, want 0", got)
	}
	res2, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(res2.Body)
	res2.Body.Close()

	// The journal round-trips the result struct; its payload must decode to
	// the same result (and in practice is byte-identical, since Go's JSON
	// float encoding round-trips exactly).
	if !bytes.Equal(canonical, body2) {
		var a, b map[string]any
		if json.Unmarshal(canonical, &a) != nil || json.Unmarshal(body2, &b) != nil {
			t.Fatal("restarted payload is not valid JSON")
		}
		t.Fatalf("restarted daemon served a payload differing from the original run (%d vs %d bytes)",
			len(canonical), len(body2))
	}
}

// TestMemoServesEveryPathIdentically: the campaign memo is the one result
// store, so a finished configuration resubmitted later is an immediate 200
// hit carrying its summary, and GET /result serves identical bytes whichever
// way a job reached its result — the executing job, an in-flight dedup
// join, the later hit, a restarted server preloaded from the journal, and a
// coordinator whose worker ran the same spec.
func TestMemoServesEveryPathIdentically(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	jrn, err := campaign.OpenJournalWith(journalPath, false, campaign.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Policy{Jobs: 2})
	eng.AttachJournal(jrn)
	gate := make(chan struct{})
	srv, err := NewServer(Options{Engine: eng, Version: "memo", Run: func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-gate
		return sim.RunContext(ctx, cfg)
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The first submission executes; the second joins it while the gate
	// holds the run in flight.
	resp, exec := postJob(t, ts, e2eSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	resp, join := postJob(t, ts, e2eSpec)
	if resp.StatusCode != http.StatusAccepted || !join.Deduped {
		t.Fatalf("in-flight resubmit = (%d, %+v), want a 202 dedup join", resp.StatusCode, join)
	}
	close(gate)
	for _, id := range []string{exec.ID, join.ID} {
		if st := waitTerminal(t, ts, id); st.State != StateDone || st.Summary == "" {
			t.Fatalf("job %s = %+v, want done with a summary", id, st)
		}
	}

	resp, hit := postJob(t, ts, e2eSpec)
	if resp.StatusCode != http.StatusOK || !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("finished resubmit = (%d, %+v), want a 200 cache hit", resp.StatusCode, hit)
	}
	if want := getStatus(t, ts, exec.ID).Summary; hit.Summary != want {
		t.Fatalf("hit summary = %q, want the executed job's %q", hit.Summary, want)
	}

	want := fetchResult(t, ts, exec.ID)
	if len(want) == 0 {
		t.Fatal("empty result payload")
	}
	check := func(path string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: result bytes differ from the executed job's (%d vs %d bytes)", path, len(got), len(want))
		}
	}
	check("dedup join", fetchResult(t, ts, join.ID))
	check("hit", fetchResult(t, ts, hit.ID))
	if got := srv.Stats().Engine.Executed; got != 1 {
		t.Fatalf("executed = %d, want 1", got)
	}

	// A second server whose only warming is Engine.Preload from the
	// journal.
	eng.Drain()
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := campaign.LoadJournalFS(nil, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := campaign.New(campaign.Policy{Jobs: 1})
	defer func() {
		eng2.Interrupt()
		eng2.Drain()
	}()
	eng2.Preload(recs)
	srv2, err := NewServer(Options{Engine: eng2, Version: "memo-restarted"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, warm := postJob(t, ts2, e2eSpec)
	if resp.StatusCode != http.StatusOK || !warm.CacheHit || warm.Summary != hit.Summary {
		t.Fatalf("preloaded resubmit = (%d, %+v), want a 200 cache hit with the same summary", resp.StatusCode, warm)
	}
	check("preloaded server", fetchResult(t, ts2, warm.ID))

	// Coordinator mode: a worker runs the spec and ships its result back.
	_, tsC, _ := newCoordinator(t, nil, dist.TableOptions{})
	startWorker(t, tsC.URL, "w1", nil)
	_, remote := postJob(t, tsC, e2eSpec)
	if st := waitTerminal(t, tsC, remote.ID); st.State != StateDone {
		t.Fatalf("coordinator job ended %s (%s)", st.State, st.Error)
	}
	check("coordinator", fetchResult(t, tsC, remote.ID))
	resp, remoteHit := postJob(t, tsC, e2eSpec)
	if resp.StatusCode != http.StatusOK || !remoteHit.CacheHit {
		t.Fatalf("coordinator resubmit = (%d, %+v), want a 200 cache hit", resp.StatusCode, remoteHit)
	}
	check("coordinator hit", fetchResult(t, tsC, remoteHit.ID))
}
