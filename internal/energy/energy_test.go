package energy

import (
	"math"
	"testing"
	"testing/quick"

	"sttsim/internal/mem"
	"sttsim/internal/noc"
)

// paperRouters is the router count of the paper's 8x8x2 network.
var paperRouters = noc.DefaultTopology().NumNodes()

func TestComputeLeakageScalesWithTime(t *testing.T) {
	banks := make([]mem.BankStats, 64)
	r1 := Compute(mem.SRAM, banks, noc.NetStats{}, 3_000_000, paperRouters, DefaultParams) // 1ms
	r2 := Compute(mem.SRAM, banks, noc.NetStats{}, 6_000_000, paperRouters, DefaultParams) // 2ms
	if math.Abs(r2.CacheLeakageJ-2*r1.CacheLeakageJ) > 1e-12 {
		t.Fatalf("leakage not linear in time: %g vs %g", r1.CacheLeakageJ, r2.CacheLeakageJ)
	}
	// 64 banks x 444.6mW x 1ms = 28.45mJ.
	want := 64 * 444.6e-3 * 1e-3
	if math.Abs(r1.CacheLeakageJ-want) > 1e-6 {
		t.Fatalf("SRAM leakage = %g J, want %g J", r1.CacheLeakageJ, want)
	}
}

func TestComputeDynamicEnergy(t *testing.T) {
	banks := []mem.BankStats{{Reads: 1000, Writes: 500}}
	r := Compute(mem.STTRAM, banks, noc.NetStats{}, 0, paperRouters, DefaultParams)
	want := (1000*0.278 + 500*0.765) * 1e-9
	if math.Abs(r.CacheDynamicJ-want) > 1e-15 {
		t.Fatalf("cache dynamic = %g, want %g", r.CacheDynamicJ, want)
	}
	net := noc.NetStats{BufferWrites: 100, LinkFlits: 200, TSVFlits: 50, TSBFlits: 25, LocalFlits: 10}
	r = Compute(mem.STTRAM, nil, net, 0, paperRouters, DefaultParams)
	wantNet := (100*DefaultParams.BufferWriteNJ + 200*DefaultParams.LinkTraverseNJ +
		50*DefaultParams.TSVTraverseNJ + 25*DefaultParams.TSBTraverseNJ +
		10*DefaultParams.EjectNJ) * 1e-9
	if math.Abs(r.NetworkDynamicJ-wantNet) > 1e-15 {
		t.Fatalf("net dynamic = %g, want %g", r.NetworkDynamicJ, wantNet)
	}
}

func TestSTTLeakageAdvantage(t *testing.T) {
	// The headline of Figure 8: the same activity costs far less un-core
	// energy on STT-RAM banks because leakage dominates.
	banks := make([]mem.BankStats, 64)
	for i := range banks {
		banks[i] = mem.BankStats{Reads: 10000, Writes: 5000}
	}
	net := noc.NetStats{BufferWrites: 1e6, LinkFlits: 2e6, TSVFlits: 3e5, LocalFlits: 2e5}
	cycles := uint64(10_000_000)
	sram := Compute(mem.SRAM, banks, net, cycles, paperRouters, DefaultParams)
	stt := Compute(mem.STTRAM, banks, net, cycles, paperRouters, DefaultParams)
	ratio := stt.UncoreJ() / sram.UncoreJ()
	if ratio > 0.7 || ratio < 0.3 {
		t.Fatalf("STT/SRAM un-core ratio = %.2f, want roughly the paper's ~0.46", ratio)
	}
}

func TestWriteBufferEnergyAccounting(t *testing.T) {
	// Buffered banks drain writes into the array later; those drains carry
	// the write energy, and buffer hits carry read energy.
	banks := []mem.BankStats{{Reads: 10, Writes: 10, BufferHits: 5, DrainedWrites: 10}}
	r := Compute(mem.STTRAM, banks, noc.NetStats{}, 0, paperRouters, DefaultParams)
	want := ((10+5)*0.278 + (10+10)*0.765) * 1e-9
	if math.Abs(r.CacheDynamicJ-want) > 1e-15 {
		t.Fatalf("buffered cache dynamic = %g, want %g", r.CacheDynamicJ, want)
	}
}

// Property: energy is additive and non-negative for any counter values.
func TestEnergyAdditivityProperty(t *testing.T) {
	f := func(reads, writes uint32, link, tsv uint32, cycles uint32) bool {
		banks := []mem.BankStats{{Reads: uint64(reads), Writes: uint64(writes)}}
		net := noc.NetStats{LinkFlits: uint64(link), TSVFlits: uint64(tsv)}
		r := Compute(mem.STTRAM, banks, net, uint64(cycles), paperRouters, DefaultParams)
		if r.CacheDynamicJ < 0 || r.CacheLeakageJ < 0 || r.NetworkDynamicJ < 0 || r.NetworkLeakageJ < 0 {
			return false
		}
		sum := r.CacheDynamicJ + r.CacheLeakageJ + r.NetworkDynamicJ + r.NetworkLeakageJ
		return math.Abs(sum-r.UncoreJ()) < 1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
