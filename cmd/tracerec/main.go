// Command tracerec records, inspects, and replays per-core instruction
// traces — the trace-driven operating mode of the paper's simulator.
//
//	tracerec -mode record -bench tpcc -n 200000 -dir /tmp/tpcc-traces
//	tracerec -mode info   -dir /tmp/tpcc-traces
//	tracerec -mode replay -dir /tmp/tpcc-traces -scheme wb
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sttsim/internal/cpu"
	"sttsim/internal/noc"
	"sttsim/internal/sim"
	"sttsim/internal/trace"
	"sttsim/internal/version"
	"sttsim/internal/workload"
)

func main() {
	mode := flag.String("mode", "record", "record | info | replay")
	bench := flag.String("bench", "tpcc", "benchmark to record")
	n := flag.Uint64("n", 200000, "instructions per core to record")
	dir := flag.String("dir", "traces", "trace directory")
	seed := flag.Uint64("seed", 0x5717AB, "workload seed")
	schemeName := flag.String("scheme", "wb", "scheme for replay (sram|stt64|stt4|ss|rca|wb)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("tracerec %s\n", version.String())
		return
	}

	var err error
	switch *mode {
	case "record":
		err = record(*bench, *n, *dir, *seed)
	case "info":
		err = info(*dir)
	case "replay":
		err = replay(*dir, *schemeName)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func tracePath(dir string, core int) string {
	return filepath.Join(dir, fmt.Sprintf("core%02d.trc", core))
}

func record(bench string, n uint64, dir string, seed uint64) error {
	prof, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := workload.ModeFor(prof.Suite)
	topo := noc.DefaultTopology()
	var total int64
	for core := 0; core < topo.NumCores(); core++ {
		gen := workload.NewGeneratorBanks(prof, core, mode, seed, prof.MissRatio(), topo.NumBanks())
		f, err := os.Create(tracePath(dir, core))
		if err != nil {
			return err
		}
		if err := trace.Record(gen, n, f, trace.Meta{Name: bench, Core: core, Seed: seed}); err != nil {
			f.Close()
			return err
		}
		st, _ := f.Stat()
		if st != nil {
			total += st.Size()
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("recorded %d instructions x %d cores of %s into %s (%.1f MB)\n",
		n, topo.NumCores(), bench, dir, float64(total)/1e6)
	return nil
}

func loadAll(dir string) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, noc.DefaultTopology().NumCores())
	for core := range traces {
		f, err := os.Open(tracePath(dir, core))
		if err != nil {
			return nil, err
		}
		traces[core], err = trace.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", core, err)
		}
	}
	return traces, nil
}

func info(dir string) error {
	traces, err := loadAll(dir)
	if err != nil {
		return err
	}
	m := traces[0].Meta
	fmt.Printf("benchmark %s, seed %#x, %d cores, %d instructions each\n",
		m.Name, m.Seed, len(traces), traces[0].Len())
	return nil
}

func replay(dir, schemeName string) error {
	scheme, err := sim.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	traces, err := loadAll(dir)
	if err != nil {
		return err
	}
	prof, err := workload.ByName(traces[0].Meta.Name)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{
		Scheme:     scheme,
		Assignment: workload.Homogeneous(prof),
		Seed:       traces[0].Meta.Seed,
		GeneratorFactory: func(core int, _ workload.Profile, _ float64) cpu.Generator {
			return trace.NewPlayer(traces[core])
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Summary())
	return nil
}
