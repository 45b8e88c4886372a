// Heatmap: visualize where a bursty workload lands on the cache layer —
// per-bank write load and busy fraction as ASCII heatmaps in the paper's
// Figure 4 mesh orientation.
//
//	go run ./examples/heatmap
package main

import (
	"fmt"
	"log"
	"os"

	"sttsim/internal/noc"
	"sttsim/internal/sim"
	"sttsim/internal/stats"
	"sttsim/internal/workload"
)

func main() {
	prof := workload.MustByName("tpcc")
	res, err := sim.Run(sim.Config{
		Scheme:        sim.SchemeSTT4TSBWB,
		Assignment:    workload.Homogeneous(prof),
		WarmupCycles:  10000,
		MeasureCycles: 30000,
	})
	if err != nil {
		log.Fatal(err)
	}

	topo := noc.DefaultTopology()
	writes := make([]float64, topo.NumBanks())
	busy := make([]float64, topo.NumBanks())
	queued := make([]float64, topo.NumBanks())
	for i, b := range res.BankStats {
		writes[i] = float64(b.Writes)
		busy[i] = float64(b.BusyCycles) / float64(res.Cycles)
		queued[i] = float64(b.QueuedCycles)
	}

	fmt.Printf("%s on %s, %d cycles\n\n", prof.Name, res.Config.Scheme, res.Cycles)
	stats.Heatmap(os.Stdout, "bank writes", writes, topo.MeshX)
	fmt.Println()
	stats.Heatmap(os.Stdout, "bank busy fraction", busy, topo.MeshX)
	fmt.Println()
	stats.Heatmap(os.Stdout, "bank queued cycles", queued, topo.MeshX)
}
