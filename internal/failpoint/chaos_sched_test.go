package failpoint_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sttsim/internal/campaign"
	"sttsim/internal/dist"
	"sttsim/internal/failpoint"
	"sttsim/internal/service"
	"sttsim/internal/sim"
	"sttsim/pkg/sttsim"
)

// TestChaosSchedules is the schedule-driven chaos suite: it boots a live
// coordinator + 2-worker topology per seed, with a seeded DiskScript under
// the checkpoint journal, a seeded NetScript under each worker's HTTP client,
// and scripted sever events on the coordinator's listener, then submits a
// batch of jobs and asserts the standing invariants:
//
//   - at most one terminal journal record per fingerprint — exactly one for
//     every completed job when the journal stayed healthy;
//   - every served result is byte-identical to the canonical marshal of the
//     deterministic stub outcome for its config;
//   - no lease leaked: the table ends with zero queued and zero leased tasks;
//   - per-key lease epochs in the journal strictly increase;
//   - a degraded journal (injected ENOSPC / fsync failure) never corrupts
//     the file: the replay still parses cleanly.
//
// Every fault decision flows from the schedule seed, so any failure replays
// exactly: CHAOS_SEED=<seed> go test -run TestChaosSchedules ./internal/failpoint
//
// CHAOS_SCHED sets the schedule count (default chaosDefaultSchedules; the
// chaos-sched CI job runs 200 under -race).
func TestChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules run multi-second topologies; skipped in -short")
	}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		runChaosSchedule(t, seed)
		return
	}
	n := chaosDefaultSchedules
	if s := os.Getenv("CHAOS_SCHED"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("CHAOS_SCHED=%q: want a positive integer", s)
		}
		n = v
	}
	for i := 0; i < n; i++ {
		seed := chaosBaseSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSchedule(t, seed)
		})
	}
}

const (
	// chaosBaseSeed anchors the default schedule range so runs are
	// reproducible without any environment.
	chaosBaseSeed = 77_0000
	// chaosDefaultSchedules keeps the tier-1 run tight; `make chaos-sched`
	// raises it to 200.
	chaosDefaultSchedules = 10
	// chaosJobs is the distinct-config batch submitted per schedule.
	chaosJobs = 5
	// chaosDeadline bounds one schedule end to end.
	chaosDeadline = 30 * time.Second
)

// chaosStubRun is the workers' deterministic executor: a short sleep (so
// leases, heartbeats, and partitions overlap real execution) and a result
// derived only from the config.
func chaosStubRun(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	select {
	case <-time.After(2 * time.Millisecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &sim.Result{
		Config:                cfg,
		Cycles:                100_000 + cfg.Seed,
		Committed:             []uint64{cfg.Seed * 3, cfg.Seed * 5},
		IPC:                   []float64{1.25, 0.75},
		InstructionThroughput: 1 + float64(cfg.Seed%7),
		MinIPC:                0.5,
	}, nil
}

// chaosSpec renders the k-th job spec of a schedule.
func chaosSpec(k int) string {
	return fmt.Sprintf(`{"scheme":"stt4","bench":"milc","seed":%d,"warmup_cycles":1000,"measure_cycles":5000}`, 100+k)
}

// chaosExpected computes the canonical bytes a client must receive for spec:
// the stub result after one JSON round trip (what the coordinator decodes
// from the worker) marshaled the way the server materializes it.
func chaosExpected(t *testing.T, spec string) (key string, body []byte) {
	t.Helper()
	var js service.JobSpec
	if err := json.Unmarshal([]byte(spec), &js); err != nil {
		t.Fatal(err)
	}
	cfg, err := sim.FromSpec(js)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaosStubRun(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var rt sim.Result
	if err := json.Unmarshal(first, &rt); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&rt)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Fingerprint(), out
}

// runChaosSchedule boots one seeded topology, drives it, and checks the
// invariants. Every t.Fatalf carries the seed via the subtest name; the plan
// summary is logged up front for failure triage.
func runChaosSchedule(t *testing.T, seed int64) {
	plan := failpoint.RandomPlan(seed, 2)
	t.Logf("%s", plan)
	deadline := time.Now().Add(chaosDeadline)

	// Journal through the schedule's disk script. Sync policy and compaction
	// threshold also derive from the seed, so all three policies see chaos.
	policy := []campaign.SyncPolicy{campaign.SyncNever, campaign.SyncInterval, campaign.SyncAlways}[seed%3]
	jpath := filepath.Join(t.TempDir(), "ckpt.jsonl")
	jrn, err := campaign.OpenJournalWith(jpath, false, campaign.JournalOptions{
		Sync:      policy,
		SyncEvery: 5 * time.Millisecond,
		MaxBytes:  16 << 10,
		FS:        &failpoint.FaultFS{Inner: failpoint.OSFS{}, Script: plan.Disk},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}

	table := dist.NewTable(dist.TableOptions{
		LeaseTimeout:  300 * time.Millisecond,
		SweepInterval: 50 * time.Millisecond,
	})
	defer table.Close()
	eng := campaign.New(campaign.Policy{Jobs: 2 * chaosJobs})
	eng.AttachJournal(jrn)
	defer eng.Close()
	srv, err := service.NewServer(service.Options{
		Engine:   eng,
		MaxQueue: 4 * chaosJobs,
		Dist:     table,
		Journal:  jrn,
	})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := failpoint.WrapListener(ln)
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(fln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// Scripted coordinator severs: every open connection dies at the offset.
	var severStop []*time.Timer
	for _, off := range plan.Sever {
		severStop = append(severStop, time.AfterFunc(off, func() { fln.SeverAll() }))
	}
	defer func() {
		for _, tm := range severStop {
			tm.Stop()
		}
	}()

	// Two workers, each behind its own scripted transport.
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &dist.Worker{
			Coordinator:       base,
			ID:                fmt.Sprintf("w%d", i+1),
			Client:            &http.Client{Timeout: 5 * time.Second, Transport: &failpoint.Transport{Script: plan.Net[i]}},
			Run:               chaosStubRun,
			HeartbeatInterval: 50 * time.Millisecond,
			LeaseWait:         500 * time.Millisecond,
			DrainGrace:        200 * time.Millisecond,
			Backoff:           sttsim.NewBackoff(10*time.Millisecond, 100*time.Millisecond, seed),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Loop(wctx)
		}()
	}
	defer func() {
		wcancel()
		wg.Wait()
	}()

	// Submit the batch. The test client shares the severed listener with the
	// workers, so every call retries transport errors; a 503 means the
	// journal degraded under injected ENOSPC/fsync faults — an allowed
	// outcome whose own invariants are asserted below.
	type accepted struct {
		key, id  string
		expected []byte
	}
	var jobs []accepted
	rejected := 0
	for k := 0; k < chaosJobs; k++ {
		spec := chaosSpec(k)
		key, expected := chaosExpected(t, spec)
		status, body := chaosPost(t, deadline, base+"/v1/jobs", spec)
		switch status {
		case http.StatusOK, http.StatusAccepted:
			var st service.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("job %d: undecodable submit response %q: %v", k, body, err)
			}
			jobs = append(jobs, accepted{key: key, id: st.ID, expected: expected})
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("job %d: submit answered %d: %s", k, status, body)
		}
	}
	if rejected > 0 && jrn.Degraded() == nil {
		t.Fatalf("%d submission(s) rejected 503 with a healthy journal", rejected)
	}

	// Drive every accepted job to done and check byte identity.
	for _, j := range jobs {
		st := chaosAwait(t, deadline, base, j.id)
		if st.State != service.StateDone {
			t.Fatalf("job %s (%s) ended %q (cause %q, err %q), want done",
				j.id, short(j.key), st.State, st.Cause, st.Error)
		}
		status, body := chaosGet(t, deadline, base+"/v1/jobs/"+j.id+"/result")
		if status != http.StatusOK {
			t.Fatalf("job %s result answered %d: %s", j.id, status, body)
		}
		if !bytes.Equal(bytes.TrimSpace(body), j.expected) {
			t.Fatalf("job %s (%s): served bytes differ from canonical stub result\n got: %.200s\nwant: %.200s",
				j.id, short(j.key), body, j.expected)
		}
	}

	// Shut down in dependency order: drain the service (workers still
	// leasing — drain answers their polls 204+Retry-After), stop workers,
	// then freeze and inspect the table and journal.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = srv.Drain(drainCtx)
	drainCancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	wcancel()
	wg.Wait()

	// No leaked leases: every task reached a terminal transition.
	snap := table.Snapshot()
	if snap.Queued != 0 || snap.Leased != 0 {
		t.Fatalf("lease table leaked: queued=%d leased=%d (%+v)", snap.Queued, snap.Leased, snap)
	}

	// Close before snapshotting: the close-time fsync can itself draw an
	// injected fault, which degrades the journal like any other sync failure.
	cerr := jrn.Close()
	js := jrn.Stats()
	if cerr != nil && js.Degraded == "" {
		t.Fatalf("journal close: %v", cerr)
	}

	// Journal invariants. The file must parse cleanly even after injected
	// faults: the repair path truncates every torn write it survives, and a
	// degrading fault truncates before giving up.
	recs, dropped, err := campaign.LoadJournalFS(nil, jpath)
	if err != nil {
		t.Fatalf("replay journal: %v", err)
	}
	if dropped != 0 && js.Degraded == "" {
		t.Fatalf("healthy journal dropped %d line(s) at replay", dropped)
	}
	terminals := make(map[string]int)
	epochs := make(map[string]uint64)
	for _, rec := range recs {
		switch rec.Status {
		case campaign.StatusOK, campaign.StatusFailed:
			terminals[rec.Key]++
		case campaign.StatusLeased:
			if rec.Epoch <= epochs[rec.Key] {
				t.Fatalf("lease epochs for %s not strictly increasing: %d then %d",
					short(rec.Key), epochs[rec.Key], rec.Epoch)
			}
			epochs[rec.Key] = rec.Epoch
		}
	}
	for key, n := range terminals {
		if n > 1 {
			t.Fatalf("key %s has %d terminal records, want at most 1", short(key), n)
		}
	}
	if js.AppendErrors == 0 && js.Degraded == "" {
		for _, j := range jobs {
			if terminals[j.key] != 1 {
				t.Fatalf("done job %s has %d terminal records in a healthy journal, want exactly 1",
					short(j.key), terminals[j.key])
			}
		}
	}
}

// chaosAwait polls a job until it reaches a terminal state.
func chaosAwait(t *testing.T, deadline time.Time, base, id string) service.JobStatus {
	t.Helper()
	for {
		status, body := chaosGet(t, deadline, base+"/v1/jobs/"+id)
		if status == http.StatusOK {
			var st service.JobStatus
			if err := json.Unmarshal(body, &st); err == nil {
				switch st.State {
				case service.StateDone, service.StateFailed, service.StateCancelled:
					return st
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish before the schedule deadline", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosPost POSTs a JSON body, retrying transport errors (the scripted
// severs hit the test client too) until the deadline.
func chaosPost(t *testing.T, deadline time.Time, url, body string) (int, []byte) {
	t.Helper()
	return chaosDo(t, deadline, func() (*http.Response, error) {
		return http.Post(url, "application/json", strings.NewReader(body))
	})
}

// chaosGet GETs a URL with the same retry discipline.
func chaosGet(t *testing.T, deadline time.Time, url string) (int, []byte) {
	t.Helper()
	return chaosDo(t, deadline, func() (*http.Response, error) { return http.Get(url) })
}

func chaosDo(t *testing.T, deadline time.Time, call func() (*http.Response, error)) (int, []byte) {
	t.Helper()
	for {
		resp, err := call()
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			resp.Body.Close()
			if rerr == nil {
				return resp.StatusCode, body
			}
			err = rerr
		}
		if time.Now().After(deadline) {
			t.Fatalf("request did not succeed before the schedule deadline: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// short abbreviates a fingerprint for failure messages.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
