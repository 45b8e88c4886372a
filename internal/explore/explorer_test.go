package explore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"sttsim/internal/campaign"
	"sttsim/internal/sim"
	"sttsim/internal/workload"
)

// smallSpace is a real three-axis space kept tiny enough for unit tests:
// 2 tech profiles x 2 topologies x 2 write-buffer depths on short runs.
func smallSpace(t *testing.T, measure uint64) *Space {
	t.Helper()
	tech, err := TechAxis("sttram", "sttram-rr10")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := TopoAxis("4x4x2", "4x4x3")
	if err != nil {
		t.Fatal(err)
	}
	wbuf, err := WriteBufferAxis(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{
		Scheme:        sim.SchemeSTT4TSBWB,
		Assignment:    workload.Case1(),
		Regions:       4,
		WarmupCycles:  200,
		MeasureCycles: measure,
		Seed:          7,
	}
	space, err := NewSpace(base, tech, topo, wbuf)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func runExplorer(t *testing.T, x *Explorer) *Report {
	t.Helper()
	rep, err := x.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestExplorerGridDeterministicAcrossParallelism: the same seed and space
// produce byte-identical pareto.jsonl whether the engine runs serial or wide.
func TestExplorerGridDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation sweep")
	}
	render := func(jobs int) ([]byte, *Report) {
		rep := runExplorer(t, &Explorer{
			Space:    smallSpace(t, 3000),
			Strategy: Grid{},
			Policy:   campaign.Policy{Jobs: jobs},
		})
		var buf bytes.Buffer
		if err := rep.WritePareto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep
	}
	serial, repSerial := render(1)
	wide, repWide := render(8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("pareto.jsonl differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, wide)
	}
	if len(repSerial.Evaluations) != 8 || len(repWide.Evaluations) != 8 {
		t.Fatalf("grid evaluated %d/%d points, want 8", len(repSerial.Evaluations), len(repWide.Evaluations))
	}
	if len(repSerial.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
}

// TestExplorerFrontierProperty: on a real sweep, no frontier member is
// dominated by any full-budget evaluation.
func TestExplorerFrontierProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rep := runExplorer(t, &Explorer{
		Space:    smallSpace(t, 3000),
		Strategy: Grid{},
		Policy:   campaign.Policy{Jobs: 4},
	})
	if len(rep.Frontier) == 0 || len(rep.Evaluations) != 8 {
		t.Fatalf("got %d frontier members over %d evaluations", len(rep.Frontier), len(rep.Evaluations))
	}
	for _, m := range rep.Frontier {
		for _, e := range rep.Evaluations {
			if e.ID == m.ID {
				continue
			}
			if Dominates(e.Objectives, m.Objectives) {
				t.Fatalf("frontier member %s dominated by evaluated %s", m.ID, e.ID)
			}
		}
	}
	// Objectives must be physically sane.
	for _, e := range rep.Evaluations {
		if e.LatencyCycles <= 0 || e.EnergyJ <= 0 || e.AreaMM2 <= 0 {
			t.Fatalf("evaluation %s has non-positive objectives: %+v", e.ID, e.Objectives)
		}
	}
}

// TestExplorerResumeReplaysJournal: a second exploration over the same space
// with -resume replays every verdict from the journal and executes nothing.
func TestExplorerResumeReplaysJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	journal := filepath.Join(t.TempDir(), "explore.journal")
	space := smallSpace(t, 2000)
	first := runExplorer(t, &Explorer{
		Space: space, Strategy: Grid{}, Policy: campaign.Policy{Jobs: 4},
		JournalPath: journal,
	})
	if first.Engine.Executed == 0 {
		t.Fatal("first pass executed nothing")
	}
	second := runExplorer(t, &Explorer{
		Space: smallSpace(t, 2000), Strategy: Grid{}, Policy: campaign.Policy{Jobs: 4},
		JournalPath: journal, Resume: true,
	})
	if second.Engine.Executed != 0 {
		t.Fatalf("resume re-executed %d run(s), want 0", second.Engine.Executed)
	}
	if second.Engine.Replayed == 0 {
		t.Fatal("resume replayed nothing from the journal")
	}
	var a, b bytes.Buffer
	if err := first.WritePareto(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WritePareto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("resumed frontier differs from original:\n--- first\n%s--- resumed\n%s", a.String(), b.String())
	}
}

// TestExplorerHalvingCheaperThanGrid pins the acceptance criterion: on the
// same space, successive halving simulates measurably fewer total cycles than
// the full grid while still producing a full-budget frontier.
func TestExplorerHalvingCheaperThanGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulation sweeps")
	}
	grid := runExplorer(t, &Explorer{
		Space:    smallSpace(t, 4000),
		Strategy: Grid{},
		Policy:   campaign.Policy{Jobs: 4},
	})
	sh := runExplorer(t, &Explorer{
		Space:    smallSpace(t, 4000),
		Strategy: SuccessiveHalving{Eta: 2, MinCycles: 1000},
		Policy:   campaign.Policy{Jobs: 4},
	})
	if sh.TotalSimCycles >= grid.TotalSimCycles {
		t.Fatalf("halving simulated %d cycles, grid %d — halving must be cheaper",
			sh.TotalSimCycles, grid.TotalSimCycles)
	}
	if sh.LowBudgetEvals == 0 {
		t.Fatal("halving never ran a low-budget scout")
	}
	for _, e := range sh.Evaluations {
		if e.Cycles != 4000 {
			t.Fatalf("frontier-feeding evaluation %s ran at %d cycles, want the full 4000", e.ID, e.Cycles)
		}
	}
	// Halving's frontier members must also be grid-undominated: the finalists
	// it promotes are real full-budget runs of the same configs.
	for _, m := range sh.Frontier {
		for _, e := range grid.Evaluations {
			if e.ID == m.ID {
				continue
			}
			if Dominates(e.Objectives, m.Objectives) {
				// Allowed in principle (halving may discard the true optimum
				// early), but with this synthetic space the scalar correlates
				// with dominance; treat as a regression signal.
				t.Logf("note: halving frontier member %s is dominated by grid point %s", m.ID, e.ID)
			}
		}
	}
}

// TestExplorerOutputsWrite exercises the artifact writers end to end.
func TestExplorerOutputsWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rep := runExplorer(t, &Explorer{
		Space:    smallSpace(t, 2000),
		Strategy: Random{Seed: 3, Samples: 3},
		Policy:   campaign.Policy{Jobs: 4},
	})
	dir := t.TempDir()
	if err := rep.WriteOutputs(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pareto.jsonl", "pareto.csv", "summary.txt"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("artifact %s missing or empty (err=%v)", name, err)
		}
	}
}
