package sim

import (
	"testing"

	"steins/internal/cpu"
	"steins/internal/trace"
)

// fullStackStream builds a raw CPU access stream filtered through the
// Table I cache hierarchy.
func fullStackStream(n int, seed uint64) *cpu.Filtered {
	raw := trace.Profile{
		Name:           "raw-zipf",
		FootprintBytes: 64 << 20,
		WriteFrac:      0.4,
		GapMean:        6, // CPU accesses, not LLC misses: small gaps
		Pattern:        trace.Zipf,
		ZipfS:          0.9,
	}
	return cpu.NewFiltered(trace.New(raw, seed, n), cpu.New(cpu.DefaultConfig()))
}

func TestFullStackFiltersAccesses(t *testing.T) {
	stream := fullStackStream(120000, 1)
	sres, err := RunShardedStream(stream, SteinsSC, Options{DataBytes: 64 << 20, MetaCacheBytes: 64 << 10}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := sres.Merged
	hs := stream.Hierarchy().Stats()
	if hs.Accesses != 120000 {
		t.Fatalf("hierarchy saw %d accesses", hs.Accesses)
	}
	memOps := res.Ctrl.DataReads + res.Ctrl.DataWrites
	if memOps == 0 || memOps >= hs.Accesses {
		t.Fatalf("filtering ineffective: %d accesses -> %d memory ops", hs.Accesses, memOps)
	}
	if hs.MissRate() > 0.9 {
		t.Fatalf("implausible miss rate %.2f for a zipf stream", hs.MissRate())
	}
}

func TestFullStackSchemeOrderingAgrees(t *testing.T) {
	// The substitution claim of DESIGN.md: driving the controller with a
	// CPU-filtered stream preserves the scheme orderings the synthesised
	// miss streams produce.
	if testing.Short() {
		t.Skip("full-stack sweep in short mode")
	}
	res := map[string]Result{}
	for _, s := range []Scheme{WBGC, ASIT, STAR, SteinsGC} {
		r, err := RunShardedStream(fullStackStream(150000, 2), s,
			Options{DataBytes: 64 << 20, MetaCacheBytes: 32 << 10}, ShardOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res[s.Name] = r.Merged
	}
	wb, as, st, sg := res["WB-GC"], res["ASIT"], res["STAR"], res["Steins-GC"]
	if !(as.AvgWriteLat > st.AvgWriteLat && st.AvgWriteLat > sg.AvgWriteLat) {
		t.Fatalf("write-latency ordering lost under full stack: ASIT %.0f STAR %.0f Steins %.0f",
			as.AvgWriteLat, st.AvgWriteLat, sg.AvgWriteLat)
	}
	if ratio := float64(as.WriteBytes) / float64(wb.WriteBytes); ratio < 1.8 {
		t.Fatalf("ASIT traffic ratio %.2f under full stack", ratio)
	}
	if sg.ExecCycles > as.ExecCycles {
		t.Fatalf("Steins slower than ASIT under full stack")
	}
}
