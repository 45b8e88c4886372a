package sttsim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestJobSpecSetDefaults pins the normalization contract: names are
// lowercased and trimmed, empty suites become "spec", and — critically — no
// numeric zero is ever filled in, because a filled default would change the
// spec's config fingerprint and split the cache identity of otherwise
// identical submissions.
func TestJobSpecSetDefaults(t *testing.T) {
	s := JobSpec{
		Scheme: "  WB ",
		Profiles: []ProfileSpec{
			{Name: " hot ", Suite: "PARSEC"},
			{Name: "cold"},
		},
	}
	s.SetDefaults()
	if s.Scheme != "wb" {
		t.Errorf("Scheme = %q, want wb", s.Scheme)
	}
	if s.Profiles[0].Name != "hot" || s.Profiles[0].Suite != "parsec" {
		t.Errorf("profile 0 = %+v, want name=hot suite=parsec", s.Profiles[0])
	}
	if s.Profiles[1].Suite != "spec" {
		t.Errorf("empty suite defaulted to %q, want spec", s.Profiles[1].Suite)
	}
	if s.WarmupCycles != 0 || s.MeasureCycles != 0 || s.Regions != 0 || s.Hops != 0 {
		t.Errorf("SetDefaults invented numeric values: %+v", s)
	}
}

func TestJobSpecValidate(t *testing.T) {
	valid := func() JobSpec { return JobSpec{Scheme: "wb", Bench: "tpcc"} }
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantErr string // substring of the SpecError field; "" = valid
	}{
		{"minimal bench spec", func(s *JobSpec) {}, ""},
		{"paper scheme spelling", func(s *JobSpec) { s.Scheme = "stt-ram-4tsb-wb" }, ""},
		{"profiles spec", func(s *JobSpec) {
			s.Bench = ""
			s.Profiles = []ProfileSpec{{Name: "x", Suite: "spec", L2MPKI: 10}}
		}, ""},
		{"unknown scheme", func(s *JobSpec) { s.Scheme = "dram" }, "scheme"},
		{"empty scheme", func(s *JobSpec) { s.Scheme = "" }, "scheme"},
		{"no workload", func(s *JobSpec) { s.Bench = "" }, "bench"},
		{"bench and profiles", func(s *JobSpec) {
			s.Profiles = []ProfileSpec{{Name: "x", Suite: "spec"}}
		}, "bench"},
		{"too many profiles", func(s *JobSpec) {
			s.Bench = ""
			s.Profiles = make([]ProfileSpec, MaxProfiles+1)
			for i := range s.Profiles {
				s.Profiles[i] = ProfileSpec{Name: "p", Suite: "spec"}
			}
		}, "profiles"},
		{"unnamed profile", func(s *JobSpec) {
			s.Bench = ""
			s.Profiles = []ProfileSpec{{Suite: "spec"}}
		}, "name"},
		{"unknown suite", func(s *JobSpec) {
			s.Bench = ""
			s.Profiles = []ProfileSpec{{Name: "x", Suite: "hpc"}}
		}, "suite"},
		{"negative rate", func(s *JobSpec) {
			s.Bench = ""
			s.Profiles = []ProfileSpec{{Name: "x", Suite: "spec", L2WPKI: -1}}
		}, "l2_wpki"},
		{"cycle ceiling", func(s *JobSpec) { s.MeasureCycles = MaxConfigCycles + 1 }, "measure_cycles"},
		{"cycle overflow", func(s *JobSpec) {
			s.WarmupCycles = ^uint64(0)
			s.MeasureCycles = 2
		}, "measure_cycles"},
		{"bad regions", func(s *JobSpec) { s.Regions = 5 }, "regions"},
		{"hops too far", func(s *JobSpec) { s.Hops = 15 }, "hops"},
		{"write buffer too deep", func(s *JobSpec) { s.WriteBufferEntries = 5000 }, "write_buffer_entries"},
		{"bank queue too deep", func(s *JobSpec) { s.BankQueueDepth = 5000 }, "bank_queue_depth"},
		{"too many hybrid banks", func(s *JobSpec) { s.HybridSRAMBanks = 65 }, "hybrid_sram_banks"},
		{"watchdog below floor", func(s *JobSpec) { s.WatchdogCycles = 50 }, "watchdog_cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var se *SpecError
			if err == nil {
				t.Fatalf("Validate() = nil, want error on %s", tc.wantErr)
			}
			if !asSpecError(err, &se) || !strings.Contains(se.Field, tc.wantErr) {
				t.Fatalf("Validate() = %v, want SpecError on field containing %q", err, tc.wantErr)
			}
		})
	}
}

func asSpecError(err error, out **SpecError) bool {
	se, ok := err.(*SpecError)
	if ok {
		*out = se
	}
	return ok
}

// TestWireFormatPinned is the drift tripwire for the /v1 wire format: each
// payload type marshals to exactly these field names. The server builds its
// responses from these same structs (internal/service aliases them), so a
// rename here is a breaking API change and must fail loudly.
func TestWireFormatPinned(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			"JobSpec", JobSpec{
				Scheme: "wb", Bench: "tpcc",
				Profiles: []ProfileSpec{{Name: "p", Suite: "spec", L1MPKI: 1, L2MPKI: 2, L2WPKI: 3, L2RPKI: 4, Bursty: true}},
				Seed:     7, WarmupCycles: 100, MeasureCycles: 200,
				Regions: 8, Corner: true, Hops: 2,
				WriteBufferEntries: 16, ReadPreemption: true, ExtraReqVC: true,
				WBWindow: 50, HoldCap: 10, BankQueueDepth: 8, HybridSRAMBanks: 4,
				EarlyWriteTermination: true, AuditInterval: 500, WatchdogCycles: 1000,
				Stream: true,
			},
			`{"scheme":"wb","bench":"tpcc","profiles":[{"name":"p","suite":"spec","l1_mpki":1,"l2_mpki":2,"l2_wpki":3,"l2_rpki":4,"bursty":true}],"seed":7,"warmup_cycles":100,"measure_cycles":200,"regions":8,"corner":true,"hops":2,"write_buffer_entries":16,"read_preemption":true,"extra_req_vc":true,"wb_window":50,"hold_cap":10,"bank_queue_depth":8,"hybrid_sram_banks":4,"early_write_termination":true,"audit_interval":500,"watchdog_cycles":1000,"stream":true}`,
		},
		{
			"JobStatus", JobStatus{
				ID: "j1", State: StateDone, Key: "k", Scheme: "WB", Bench: "tpcc",
				CacheHit: true, Deduped: true, Stream: true,
				Error: "e", Cause: "c", CreatedAt: "t", Elapsed: 1.5, Summary: "s",
			},
			`{"id":"j1","state":"done","key":"k","scheme":"WB","bench":"tpcc","cache_hit":true,"deduped":true,"stream":true,"error":"e","cause":"c","created_at":"t","elapsed_s":1.5,"summary":"s"}`,
		},
		{
			"Health", Health{
				Status: "ok", Version: "v", Mode: "coordinator",
				UptimeS: 1, QueueDepth: 2, QueueMax: 3, Jobs: 4, WorkersAlive: 5,
			},
			`{"status":"ok","version":"v","mode":"coordinator","uptime_s":1,"queue_depth":2,"queue_max":3,"jobs":4,"workers_alive":5}`,
		},
		{
			"CacheStats", CacheStats{Hits: 3, Misses: 4, HitRatio: 0.5},
			`{"hits":3,"misses":4,"hit_ratio":0.5}`,
		},
		{
			"EngineStats", EngineStats{Executed: 1, Retries: 2, MemoHits: 3, Replayed: 4, Completed: 5, Failed: 6, Cancelled: 7, JournalErrors: 8},
			`{"executed":1,"retries":2,"memo_hits":3,"replayed":4,"completed":5,"failed":6,"cancelled":7,"journal_errors":8}`,
		},
		{
			"LatencySummary", LatencySummary{Count: 1, MeanS: 2, P50S: 3, P90S: 4, P99S: 5},
			`{"count":1,"mean_s":2,"p50_s":3,"p90_s":4,"p99_s":5}`,
		},
		{
			"DistStats", DistStats{
				WorkersAlive: 1, Queued: 2, Leased: 3, Delivered: 4, Redelivered: 5,
				Expired: 6, Fenced: 7, StaleHeartbeats: 8, Completed: 9,
				Workers: []WorkerStatus{{ID: "w", Alive: true, Lease: "k", LastSeenS: 0.5}},
			},
			`{"workers_alive":1,"queued":2,"leased":3,"delivered":4,"redelivered":5,"expired":6,"fenced":7,"stale_heartbeats":8,"completed":9,"workers":[{"id":"w","alive":true,"lease":"k","last_seen_s":0.5}]}`,
		},
		{
			"JournalHealth", JournalHealth{
				RecordsWritten: 1, AppendErrors: 2, SyncErrors: 3, Compactions: 4,
				SizeBytes: 5, LastFsyncAgeS: 6, ReplayDropped: 7, TruncatedBytes: 8,
				SyncPolicy: "interval", Degraded: "enospc",
			},
			`{"records_written":1,"append_errors":2,"sync_errors":3,"compactions":4,"size_bytes":5,"last_fsync_age_s":6,"replay_dropped":7,"truncated_bytes":8,"sync_policy":"interval","degraded":"enospc"}`,
		},
		{
			"ProgressEvent", ProgressEvent{Cycle: 1, TotalCycles: 2, Percent: 50, Injected: 3, Delivered: 4, BankDone: 5, Faults: 6},
			`{"cycle":1,"total_cycles":2,"percent":50,"injected":3,"delivered":4,"bank_done":5,"faults":6}`,
		},
		{
			"ReconnectEvent", ReconnectEvent{LastEventID: 1, LatestEventID: 3, MissedEvents: 2},
			`{"last_event_id":1,"latest_event_id":3,"missed_events":2}`,
		},
		{
			"APIError", APIError{Message: "boom", RetryAfter: 2},
			`{"error":"boom","retry_after_s":2}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("wire format drifted:\n got %s\nwant %s", got, tc.want)
			}
			// Round trip: unmarshaling the pinned bytes reproduces the value.
			back := reflect.New(reflect.TypeOf(tc.v))
			if err := json.Unmarshal([]byte(tc.want), back.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Elem().Interface(), tc.v) {
				t.Errorf("round trip lost data:\n got %#v\nwant %#v", back.Elem().Interface(), tc.v)
			}
		})
	}
}

// TestStatsRoundTrip exercises the composite Stats payload with nested
// optional blocks present.
func TestStatsRoundTrip(t *testing.T) {
	st := Stats{
		UptimeS: 1, QueueDepth: 2, QueueMax: 3,
		JobsByState: map[string]int{StateDone: 4},
		Cache:       CacheStats{Hits: 5},
		Engine:      EngineStats{Executed: 6},
		RateLimited: 7, DroppedEvents: 8,
		Schemes: map[string]LatencySummary{"WB": {Count: 9}},
		Dist:    &DistStats{WorkersAlive: 10},
		Journal: &JournalHealth{RecordsWritten: 11, SyncPolicy: "always"},
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Errorf("Stats round trip lost data:\n got %#v\nwant %#v", back, st)
	}
}
