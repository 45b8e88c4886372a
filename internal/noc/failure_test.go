package noc

import (
	"strings"
	"testing"
)

func TestFailDownValidation(t *testing.T) {
	r := mustRouting(t, PathAllTSVs, nil)
	if err := r.FailDown(64); err == nil {
		t.Fatal("expected error for cache-layer node")
	}
	if err := r.FailDown(-1); err == nil {
		t.Fatal("expected error for invalid node")
	}
	if err := r.FailDown(5); err != nil {
		t.Fatal(err)
	}
	if !r.DownDead(5) || r.DownDead(6) {
		t.Fatal("DownDead tracking wrong")
	}
}

func TestFailDownRefusesLastSurvivor(t *testing.T) {
	r := mustRouting(t, PathAllTSVs, nil)
	for i := 0; i < paper.LayerSize()-1; i++ {
		if err := r.FailDown(NodeID(i)); err != nil {
			t.Fatalf("kill %d: %v", i, err)
		}
	}
	if err := r.FailDown(NodeID(paper.LayerSize() - 1)); err == nil {
		t.Fatal("killing the last down-link must be rejected")
	}
}

// TestDeadDownDetourIsLoopFree: after arbitrary down-link deaths, a demand
// request descending in unrestricted mode must still reach its destination in
// a bounded number of hops from every source, via live down-links only.
func TestDeadDownDetourIsLoopFree(t *testing.T) {
	r := mustRouting(t, PathAllTSVs, nil)
	// Kill a diagonal band plus a clump: irregular enough to exercise the
	// nearest-alive recomputation.
	for _, c := range []NodeID{0, 9, 18, 27, 36, 45, 54, 63, 1, 2, 10} {
		if err := r.FailDown(c); err != nil {
			t.Fatal(err)
		}
	}
	for src := NodeID(0); int(src) < paper.LayerSize(); src++ {
		for dst := NodeID(paper.LayerSize()); int(dst) < paper.NumNodes(); dst++ {
			p := &Packet{Kind: KindReadReq, Class: ClassReq, Src: src, Dst: dst}
			at := src
			for hops := 0; at != dst; hops++ {
				if hops > 3*paper.MeshX {
					t.Fatalf("%d->%d: no arrival after %d hops (loop?)", src, dst, hops)
				}
				port := r.NextPort(at, p)
				if port == PortDown && r.DownDead(at) {
					t.Fatalf("%d->%d: routed down a dead link at %d", src, dst, at)
				}
				next := paper.Neighbor(at, port)
				if next < 0 {
					t.Fatalf("%d->%d: routed off the mesh at %d via %s", src, dst, at, port)
				}
				at = next
			}
		}
	}
}

func TestUpdateTSBMapValidation(t *testing.T) {
	r := mustRouting(t, PathRegionTSBs, paperTSBMap())
	if err := r.FailDown(27); err != nil {
		t.Fatal(err)
	}
	// A map that still routes through the dead TSB must be rejected.
	if err := r.UpdateTSBMap(paperTSBMap()); err == nil {
		t.Fatal("expected rejection of a map using a dead TSB")
	}
	// Re-home region 0 (TSB 27) onto TSB 28: accepted, and every former
	// region-0 request now descends at 28.
	m := paperTSBMap()
	for d, tsb := range m {
		if tsb == 27 {
			m[d] = 28
		}
	}
	if err := r.UpdateTSBMap(m); err != nil {
		t.Fatal(err)
	}
	p := &Packet{Kind: KindReadReq, Class: ClassReq, Src: 0, Dst: 64 + 9}
	if got := r.TSBOf(p.Dst); got != 28 {
		t.Fatalf("re-homed TSB = %d, want 28", got)
	}
	if port := r.NextPort(28, p); port != PortDown {
		t.Fatalf("request does not descend at the new TSB (got %s)", port)
	}
}

func TestPacketDumpRendering(t *testing.T) {
	d := PacketDump{ID: 7, Kind: KindWriteReq, Class: ClassReq, Src: 3, Dst: 70,
		At: 12, Where: "router port E vc 1", Injected: 42, Hops: 4, SizeFlits: 9}
	s := d.String()
	for _, want := range []string{"pkt 7", "3->70", "router port E vc 1", "hops=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump %q missing %q", s, want)
		}
	}
}
