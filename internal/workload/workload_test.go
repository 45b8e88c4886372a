package workload

import (
	"math"
	"testing"
	"testing/quick"

	"sttsim/internal/cache"
	"sttsim/internal/cpu"
	"sttsim/internal/noc"
)

// paper is the 8x8x2 shape and paperMap its address interleaving.
var (
	paper    = noc.DefaultTopology()
	paperMap = cache.NewAddrMap(paper)
)

// newGen builds core's stream over the paper's banks at the profile's native
// miss ratio.
func newGen(prof Profile, core int, mode Mode, seed uint64) *Generator {
	return NewGeneratorBanks(prof, core, mode, seed, prof.MissRatio(), paper.NumBanks())
}

func TestProfilesMatchPaperInventory(t *testing.T) {
	if len(Profiles) != 42 {
		t.Fatalf("Table 3 has 42 rows, got %d", len(Profiles))
	}
	counts := map[Suite]int{}
	for _, p := range Profiles {
		counts[p.Suite]++
	}
	if counts[SuiteServer] != 4 {
		t.Fatalf("server workloads = %d, want 4", counts[SuiteServer])
	}
	if counts[SuitePARSEC] != 13 {
		t.Fatalf("PARSEC workloads = %d, want 13", counts[SuitePARSEC])
	}
	if counts[SuiteSPEC] != 25 {
		t.Fatalf("SPEC workloads = %d, want 25", counts[SuiteSPEC])
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("tpcc")
	if err != nil || p.L2WPKI != 40.90 {
		t.Fatalf("tpcc lookup failed: %v %+v", err, p)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName should panic on unknown name")
		}
	}()
	MustByName("nope")
}

func TestBySuite(t *testing.T) {
	server := BySuite(SuiteServer)
	if len(server) != 4 || server[0].Name != "tpcc" {
		t.Fatalf("BySuite(Server) = %v", server)
	}
	if SuiteServer.String() != "SERVER" || SuitePARSEC.String() != "PARSEC" || SuiteSPEC.String() != "SPEC2006" {
		t.Fatal("suite names wrong")
	}
}

func TestMissRatioDerivation(t *testing.T) {
	// tpcc: 6.06 read misses per 10.57 reads.
	if got := MustByName("tpcc").MissRatio(); math.Abs(got-6.06/10.57) > 1e-9 {
		t.Fatalf("tpcc miss ratio = %f", got)
	}
	// libquantum misses on every read.
	if got := MustByName("libqntm").MissRatio(); got != 1 {
		t.Fatalf("libquantum miss ratio = %f, want 1 (clamped)", got)
	}
	// Zero-read profile is defined as zero.
	p := Profile{L2RPKI: 0, L2MPKI: 5}
	if p.MissRatio() != 0 {
		t.Fatal("zero-read profile should have miss ratio 0")
	}
}

func TestIntensityClassifiers(t *testing.T) {
	if !MustByName("tpcc").WriteIntensive() {
		t.Fatal("tpcc is write-intensive")
	}
	if !MustByName("libqntm").ReadIntensive() {
		t.Fatal("libquantum is read-intensive")
	}
	if MustByName("libqntm").WriteIntensive() {
		t.Fatal("libquantum is not write-intensive")
	}
}

func TestRandDeterminismAndRange(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	r := NewRand(0) // remapped, not degenerate
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		v := r.Uint64()
		if seen[v] {
			t.Fatal("degenerate stream from zero seed")
		}
		seen[v] = true
		f := NewRand(uint64(i + 1)).Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestGeneratorMatchesProfileRates(t *testing.T) {
	for _, name := range []string{"tpcc", "hmmer", "calculix"} {
		prof := MustByName(name)
		g := newGen(prof, 0, ModeFor(prof.Suite), 42)
		const n = 400000
		var reads, writes int
		for i := 0; i < n; i++ {
			switch g.Next().Kind {
			case cpu.AccessRead:
				reads++
			case cpu.AccessWrite:
				writes++
			}
		}
		gotR := float64(reads) / n * 1000
		gotW := float64(writes) / n * 1000
		if math.Abs(gotR-prof.L2RPKI) > 0.25*prof.L2RPKI+0.2 {
			t.Errorf("%s: generated rpki %.2f, want %.2f", name, gotR, prof.L2RPKI)
		}
		if math.Abs(gotW-prof.L2WPKI) > 0.25*prof.L2WPKI+0.2 {
			t.Errorf("%s: generated wpki %.2f, want %.2f", name, gotW, prof.L2WPKI)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	prof := MustByName("lbm")
	a := newGen(prof, 3, ModePrivate, 9)
	b := newGen(prof, 3, ModePrivate, 9)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("generator streams diverged for identical seeds")
		}
	}
	// A different core gets a different stream.
	c := newGen(prof, 4, ModePrivate, 9)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 990 {
		t.Fatal("different cores should see different streams")
	}
}

func TestColdAddressesNeverRepeat(t *testing.T) {
	prof := MustByName("libqntm") // 100% read miss: every read is cold
	g := newGen(prof, 0, ModePrivate, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 200000; i++ {
		a := g.Next()
		if a.Kind != cpu.AccessRead {
			continue
		}
		la := cache.LineAddr(a.Addr)
		if seen[la] {
			t.Fatalf("cold line %d repeated", la)
		}
		seen[la] = true
	}
}

func TestPrivateModeAddressesDisjoint(t *testing.T) {
	prof := MustByName("hmmer")
	g0 := newGen(prof, 0, ModePrivate, 5)
	g1 := newGen(prof, 1, ModePrivate, 5)
	lines0 := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		if a := g0.Next(); a.Kind != cpu.AccessNone {
			lines0[cache.LineAddr(a.Addr)] = true
		}
	}
	for i := 0; i < 50000; i++ {
		if a := g1.Next(); a.Kind != cpu.AccessNone {
			if lines0[cache.LineAddr(a.Addr)] {
				t.Fatal("private address spaces overlap across cores")
			}
		}
	}
}

func TestSharedModeTouchesSharedRegion(t *testing.T) {
	prof := MustByName("tpcc")
	g0 := newGen(prof, 0, ModeShared, 5)
	g1 := newGen(prof, 1, ModeShared, 5)
	lines0 := map[uint64]bool{}
	for i := 0; i < 200000; i++ {
		if a := g0.Next(); a.Kind != cpu.AccessNone {
			lines0[cache.LineAddr(a.Addr)] = true
		}
	}
	overlap := 0
	for i := 0; i < 200000; i++ {
		if a := g1.Next(); a.Kind != cpu.AccessNone {
			if lines0[cache.LineAddr(a.Addr)] {
				overlap++
			}
		}
	}
	if overlap == 0 {
		t.Fatal("multi-threaded cores never touched shared lines")
	}
}

func TestBurstSteeringConcentratesOnOneBank(t *testing.T) {
	prof := MustByName("tpcc") // bursty
	g := newGen(prof, 0, ModeShared, 3)
	// Count the longest same-bank run of consecutive accesses.
	longest, run, lastBank := 0, 0, -1
	for i := 0; i < 500000; i++ {
		a := g.Next()
		if a.Kind == cpu.AccessNone {
			continue
		}
		b := paperMap.HomeBank(a.Addr)
		if b == lastBank {
			run++
		} else {
			run, lastBank = 1, b
		}
		if run > longest {
			longest = run
		}
	}
	if longest < 3 {
		t.Fatalf("bursty app never produced a same-bank run (longest %d)", longest)
	}
}

func TestHotFootprintCoversHotAccesses(t *testing.T) {
	prof := MustByName("hmmer")
	g := NewGeneratorBanks(prof, 2, ModeShared, 11, 0, paper.NumBanks()) // no cold accesses
	foot := map[uint64]bool{}
	for _, l := range g.HotFootprint() {
		foot[l] = true
	}
	if len(foot) != HotLinesPerCore+SharedHotLines {
		t.Fatalf("footprint size %d, want %d", len(foot), HotLinesPerCore+SharedHotLines)
	}
	for i := 0; i < 100000; i++ {
		a := g.Next()
		if a.Kind == cpu.AccessNone {
			continue
		}
		if !foot[cache.LineAddr(a.Addr)] {
			t.Fatalf("hot access to line %d outside the declared footprint", cache.LineAddr(a.Addr))
		}
	}
}

func TestAssignments(t *testing.T) {
	h := Homogeneous(MustByName("tpcc"))
	if h.Mode != ModeShared || h.Profiles[63].Name != "tpcc" {
		t.Fatal("homogeneous assignment wrong")
	}
	s := Homogeneous(MustByName("mcf"))
	if s.Mode != ModePrivate {
		t.Fatal("SPEC should be multi-programmed")
	}
	c1 := Case1()
	counts := map[string]int{}
	for _, p := range c1.Profiles {
		counts[p.Name]++
	}
	for _, name := range []string{"soplex", "cactus", "lbm", "hmmer"} {
		if counts[name] != 16 {
			t.Fatalf("Case-1 has %d copies of %s, want 16", counts[name], name)
		}
	}
	c2 := Case2()
	counts = map[string]int{}
	for _, p := range c2.Profiles {
		counts[p.Name]++
	}
	if counts["lbm"] != 16 || counts["bzip2"] != 16 || counts["libqntm"] != 16 || counts["hmmer"] != 16 {
		t.Fatalf("Case-2 composition wrong: %v", counts)
	}
}

func TestCase3Composition(t *testing.T) {
	mixes := Case3(77)
	if len(mixes) != 32 {
		t.Fatalf("Case-3 has %d mixes, want 32", len(mixes))
	}
	kinds := map[string]int{}
	for _, m := range mixes {
		kinds[m.Name]++
		distinct := map[string]bool{}
		for _, p := range m.Profiles {
			distinct[p.Name] = true
		}
		if len(distinct) > 8 {
			t.Fatalf("mix %s has %d distinct apps, want <= 8", m.Name, len(distinct))
		}
	}
	if kinds["case3-read"] != 8 || kinds["case3-write"] != 8 || kinds["case3-mixed"] != 16 {
		t.Fatalf("Case-3 category counts wrong: %v", kinds)
	}
	// Deterministic for a fixed seed.
	again := Case3(77)
	for i := range mixes {
		if mixes[i].Profiles != again[i].Profiles {
			t.Fatal("Case-3 mixes not deterministic")
		}
	}
}

// Property: generated addresses always map to a valid bank, and the home
// node is always a cache-layer node.
func TestGeneratorAddressValidityProperty(t *testing.T) {
	f := func(profIdx, core uint8, shared bool, seed uint64) bool {
		prof := Profiles[int(profIdx)%len(Profiles)]
		mode := ModePrivate
		if shared {
			mode = ModeShared
		}
		g := newGen(prof, int(core)%paper.NumCores(), mode, seed)
		for i := 0; i < 2000; i++ {
			a := g.Next()
			if a.Kind == cpu.AccessNone {
				continue
			}
			hb := paperMap.HomeBank(a.Addr)
			if hb < 0 || hb >= paperMap.NumBanks() {
				return false
			}
			if paper.Layer(paperMap.HomeNode(a.Addr)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
