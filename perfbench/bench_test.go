package main

import (
	"reflect"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := l.add("job", "root", 0, at(0), at(100))
	// Overlapping children cover 10..50 and 60..70: 50ms of the root.
	l.add("job", "a", root, at(10), at(40))
	l.add("job", "b", root, at(30), at(50))
	l.add("job", "c", root, at(60), at(70))
	for _, st := range l.selfTimes() {
		if st.Name == "root" && st.Self != 50*time.Millisecond {
			t.Errorf("root self time %v, want 50ms", st.Self)
		}
		if st.Name == "a" && st.Self != st.Total {
			t.Errorf("leaf self time %v differs from its total %v", st.Self, st.Total)
		}
	}
}

func TestServePlanIsSeededAndMixed(t *testing.T) {
	a, b := planServe(7, 20), planServe(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, planServe(8, 20)) {
		t.Fatal("two seeds gave one schedule")
	}
	counts := map[subKind]int{}
	var last time.Duration
	for i, s := range a {
		counts[s.kind]++
		if s.at < last {
			t.Fatalf("submission %d due before its predecessor", i)
		}
		last = s.at
		if s.kind == kindDupNear || s.kind == kindDupFar {
			if a[s.target].kind != kindUnique || !reflect.DeepEqual(a[s.target].spec, s.spec) || s.target >= i {
				t.Fatalf("duplicate %d does not repeat an earlier unique", i)
			}
		}
	}
	if n, want := len(a), int(20*serveRate); n < want-1 || n > want+1 {
		t.Errorf("%d submissions in 20s at %v/s, want about %d", n, serveRate, want)
	}
	for _, k := range []subKind{kindUnique, kindDupNear, kindDupFar, kindInvalid} {
		if counts[k] == 0 {
			t.Errorf("no %s submissions", k)
		}
	}
}

func TestPoolOrderIsAPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, e := range poolOrder(3) {
		if e < 0 || e >= simPool || seen[e] {
			t.Fatalf("pool order %v is not a permutation of 0..%d", poolOrder(3), simPool-1)
		}
		seen[e] = true
	}
}
