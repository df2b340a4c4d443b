package multi_test

import (
	"errors"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/rng"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/wb"
)

// fill drives n interleaved writes (and a few reads) through the system.
func fill(t *testing.T, s *multi.System, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	lines := s.DataBytes() / 64
	for i := 0; i < n; i++ {
		addr := r.Uint64n(lines) * 64
		if err := s.WriteData(5, addr, pattern(addr, byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := s.ReadData(2, addr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSystemRecoverFailuresJoined(t *testing.T) {
	// WB cannot recover: every controller must fail, and the joined error
	// must name each of them instead of masking all but the first.
	s := multi.New(3, template(), wb.Factory, 4096)
	fill(t, s, 1500, 3)
	s.Crash()
	_, rep, err := s.Recover()
	if err == nil {
		t.Fatal("WB system recovered")
	}
	if !errors.Is(err, memctrl.ErrNoRecovery) {
		t.Fatalf("error chain lost ErrNoRecovery: %v", err)
	}
	for _, want := range []string{"multi: controller 0", "multi: controller 1", "multi: controller 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
	if rep.NodesRecovered != 0 {
		t.Fatalf("aggregate claims %d nodes recovered on total failure", rep.NodesRecovered)
	}
}

func TestRecoverPartialFailure(t *testing.T) {
	// Corrupt one DIMM's tree region after the crash: its recovery must
	// fail verification while the other DIMMs still recover, and the
	// aggregate must cover the survivors.
	s := multi.New(3, template(), steins.Factory, 4096)
	fill(t, s, 3000, 7)
	s.Crash()
	victim := s.Controllers()[1]
	geo := victim.Layout().Geo
	var garbage nvmem.Line
	for i := range garbage {
		garbage[i] = 0xA5
	}
	for off := uint64(0); off < geo.MetaBytes; off += 64 {
		victim.Device().Poke(geo.MetaBase+off, garbage)
	}
	_, rep, err := s.Recover()
	if err == nil {
		t.Fatal("recovery succeeded with a corrupted DIMM")
	}
	if !strings.Contains(err.Error(), "multi: controller 1") {
		t.Fatalf("error does not name the corrupted controller: %v", err)
	}
	for _, unwanted := range []string{"controller 0", "controller 2"} {
		if strings.Contains(err.Error(), unwanted) {
			t.Fatalf("healthy %s reported as failed: %v", unwanted, err)
		}
	}
	if rep.NodesRecovered == 0 || rep.Scheme == "" {
		t.Fatalf("aggregate dropped the surviving DIMMs: %+v", rep)
	}
}

func TestSystemStatsAggregation(t *testing.T) {
	s := multi.New(4, template(), steins.Factory, 64)
	fill(t, s, 4000, 9)
	tot := s.Totals()
	agg := tot.Ctrl
	var wantW, wantR, wantLat, wantNVMWrites, wantHits uint64
	var maxExec, maxModelExec uint64
	var wantEnergy float64
	for _, c := range s.Controllers() {
		st := c.Stats()
		wantW += st.DataWrites
		wantR += st.DataReads
		wantLat += st.WriteLatSum
		wantNVMWrites += c.Device().Stats().TotalWrites()
		wantHits += c.Meta().Stats().Hits
		wantEnergy += c.EnergyPJ()
		maxExec = max(maxExec, c.MeasuredExecCycles())
		maxModelExec = max(maxModelExec, c.ExecCycles())
	}
	if agg.DataWrites != wantW || agg.DataReads != wantR || agg.WriteLatSum != wantLat {
		t.Fatalf("merged stats %d/%d/%d, want %d/%d/%d",
			agg.DataWrites, agg.DataReads, agg.WriteLatSum, wantW, wantR, wantLat)
	}
	if agg.WriteHist.Count() != wantW {
		t.Fatalf("merged write histogram count %d, want %d", agg.WriteHist.Count(), wantW)
	}
	if tot.MeasuredExecCycles != maxExec || tot.ExecCycles != maxModelExec {
		t.Fatalf("system makespans %d/%d, want parallel maxima %d/%d",
			tot.MeasuredExecCycles, tot.ExecCycles, maxExec, maxModelExec)
	}
	if tot.NVM.TotalWrites() != wantNVMWrites || tot.Cache.Hits != wantHits || tot.EnergyPJ != wantEnergy {
		t.Fatalf("merged NVM writes/cache hits/energy %d/%d/%g, want %d/%d/%g",
			tot.NVM.TotalWrites(), tot.Cache.Hits, tot.EnergyPJ, wantNVMWrites, wantHits, wantEnergy)
	}
	// The merged phase totals still partition the summed per-DIMM makespan.
	var wantSpan uint64
	for _, c := range s.Controllers() {
		wantSpan += c.MeasuredExecCycles()
	}
	if got := agg.MakespanPhaseCycles(); got != wantSpan {
		t.Fatalf("merged phase buckets sum to %d, want %d", got, wantSpan)
	}
}
