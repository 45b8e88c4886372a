package main

import (
	"slices"
	"testing"

	"sttsim/internal/fault"
	"sttsim/internal/noc"
)

func TestFaultConfigNilWithoutFaultFlags(t *testing.T) {
	// The flag defaults: -kill-cycle 1 alone is not a campaign.
	if fc := (faultFlags{killCycle: 1}).config(noc.DefaultTopology()); fc != nil {
		t.Fatalf("config() = %+v with no fault flags, want nil", fc)
	}
}

func TestFaultConfigKillTSBs(t *testing.T) {
	fc := faultFlags{killTSBs: 2, killCycle: 500}.config(noc.DefaultTopology())
	if fc == nil {
		t.Fatal("config() = nil, want a campaign")
	}
	want := []fault.TSBFailure{{Cycle: 500, Region: 0}, {Cycle: 500, Region: 1}}
	if !slices.Equal(fc.TSBFailures, want) {
		t.Errorf("TSBFailures = %+v, want %+v", fc.TSBFailures, want)
	}
	if fc.WriteErrorRate != 0 || len(fc.PortFaults) != 0 {
		t.Errorf("config() = %+v, want no write errors and no port faults", fc)
	}
}

func TestFaultConfigDeadlockTargetsABank(t *testing.T) {
	for _, shape := range []string{"8x8x2", "4x4x2", "16x8x2"} {
		topo, err := noc.ParseTopology(shape)
		if err != nil {
			t.Fatal(err)
		}
		fc := faultFlags{deadlock: true, killCycle: 1}.config(topo)
		if fc == nil || len(fc.PortFaults) != 1 {
			t.Fatalf("%s: config() = %+v, want one port fault", shape, fc)
		}
		pf := fc.PortFaults[0]
		if !topo.ValidNode(pf.Node) || topo.Layer(pf.Node) == 0 {
			t.Errorf("%s: port fault on node %d, want a cache-bank node (layers 1..%d)", shape, pf.Node, topo.Layers-1)
		}
		if pf.Port != noc.PortLocal || pf.Cycle != 1 {
			t.Errorf("%s: port fault = %+v, want the local port at cycle 1", shape, pf)
		}
	}
	// On the paper's mesh the deadlock bank is the one under core 27.
	def := noc.DefaultTopology()
	fc := faultFlags{deadlock: true}.config(def)
	if got, want := fc.PortFaults[0].Node, def.Below(27); got != want {
		t.Errorf("8x8x2 deadlock bank = %d, want %d (under core 27)", got, want)
	}
}
