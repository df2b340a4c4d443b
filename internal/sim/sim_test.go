package sim

import (
	"testing"

	"steins/internal/trace"
)

// smallOpt keeps unit-test runs quick: modest traces, small cache so all
// mechanisms engage.
func smallOpt() Options {
	return Options{Ops: 4000, Seed: 1, DataBytes: 4 << 20, MetaCacheBytes: 8 << 10}
}

// run is the one-channel run most tests below measure.
func run(prof trace.Profile, s Scheme, opt Options) (Result, error) {
	res, err := RunSharded(prof, s, opt, ShardOptions{})
	return res.Merged, err
}

func smallProfile() trace.Profile {
	return trace.Profile{
		Name: "unit-uniform", FootprintBytes: 2 << 20, WriteFrac: 0.5,
		GapMean: 50, Pattern: trace.Uniform,
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, s := range []Scheme{WBGC, WBSC, ASIT, STAR, SteinsGC, SteinsSC, SCUEGC, SCUESC} {
		res, err := run(smallProfile(), s, smallOpt())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.ExecCycles == 0 || res.AvgWriteLat == 0 || res.AvgReadLat == 0 {
			t.Fatalf("%s: empty result %+v", s.Name, res)
		}
		if res.EnergyPJ <= 0 || res.WriteBytes == 0 {
			t.Fatalf("%s: missing energy/traffic", s.Name)
		}
	}
}

func TestRunAllWorkloadsOnSteins(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in short mode")
	}
	for _, prof := range trace.All() {
		opt := Options{Ops: 2000, Seed: 2, MetaCacheBytes: 8 << 10}
		if _, err := run(prof, SteinsGC, opt); err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
	}
}

func TestSchemeOrderingsMatchPaper(t *testing.T) {
	// The qualitative results of §IV-A/B on a memory-intensive uniform
	// workload: ASIT slowest, STAR between, Steins-GC near WB-GC; ASIT
	// writes ~2x WB; Steins traffic below STAR's.
	// A SPEC-scale footprint so STAR's bitmap working set exceeds its
	// controller cache, as it does against 16 GB memory (see DESIGN.md).
	prof := trace.Profile{
		Name: "ordering-uniform", FootprintBytes: 64 << 20, WriteFrac: 0.5,
		GapMean: 300, Pattern: trace.Uniform,
	}
	opt := Options{Ops: 12000, Seed: 1, MetaCacheBytes: 32 << 10}
	res := map[string]Result{}
	for _, s := range GCComparison() {
		r, err := run(prof, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		res[s.Name] = r
	}
	wb, as, st, sg := res["WB-GC"], res["ASIT"], res["STAR"], res["Steins-GC"]
	if !(as.ExecCycles > st.ExecCycles && st.ExecCycles > sg.ExecCycles) {
		t.Fatalf("exec ordering wrong: ASIT %d, STAR %d, Steins %d",
			as.ExecCycles, st.ExecCycles, sg.ExecCycles)
	}
	if sg.ExecCycles < wb.ExecCycles {
		t.Fatalf("Steins-GC faster than WB-GC: %d < %d", sg.ExecCycles, wb.ExecCycles)
	}
	if ratio := float64(as.WriteBytes) / float64(wb.WriteBytes); ratio < 1.5 {
		t.Fatalf("ASIT/WB traffic %.2f, want >= 1.5", ratio)
	}
	if sg.WriteBytes >= st.WriteBytes {
		t.Fatalf("Steins traffic %d not below STAR %d", sg.WriteBytes, st.WriteBytes)
	}
	if !(as.AvgWriteLat > st.AvgWriteLat && st.AvgWriteLat > sg.AvgWriteLat) {
		t.Fatalf("write latency ordering wrong: %v %v %v",
			as.AvgWriteLat, st.AvgWriteLat, sg.AvgWriteLat)
	}
}

func TestSplitCounterWins(t *testing.T) {
	// Fig. 12: the split-counter leaf's higher cache coverage makes
	// Steins-SC faster than Steins-GC.
	prof := smallProfile()
	opt := smallOpt()
	opt.Ops = 12000
	gc, err := run(prof, SteinsGC, opt)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := run(prof, SteinsSC, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ExecCycles >= gc.ExecCycles {
		t.Fatalf("Steins-SC (%d) not faster than Steins-GC (%d)", sc.ExecCycles, gc.ExecCycles)
	}
	if sc.MetaHitRate <= gc.MetaHitRate {
		t.Fatalf("SC hit rate %.3f not above GC %.3f", sc.MetaHitRate, gc.MetaHitRate)
	}
}

func TestRunWithCrashAllRecoverableSchemes(t *testing.T) {
	for _, s := range []Scheme{ASIT, STAR, SteinsGC, SteinsSC, SCUEGC} {
		_, rep, err := RunShardedWithCrash(smallProfile(), s, smallOpt(), ShardOptions{}, true)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if rep.TimeNS <= 0 {
			t.Fatalf("%s: empty recovery report %+v", s.Name, rep)
		}
	}
}

func TestRecoveryAtCacheSizeOrdering(t *testing.T) {
	// Fig. 17 shape at one cache size: ASIT fastest, Steins-SC slowest.
	reps := map[string]float64{}
	for _, s := range []Scheme{ASIT, STAR, SteinsGC, SteinsSC} {
		rep, err := RecoveryAtCacheSize(s, 16<<10, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		reps[s.Name] = rep.TimeNS
	}
	if !(reps["ASIT"] < reps["STAR"] && reps["ASIT"] < reps["Steins-GC"]) {
		t.Fatalf("ASIT not fastest: %v", reps)
	}
	if reps["Steins-SC"] <= reps["Steins-GC"] {
		t.Fatalf("Steins-SC (%v) not slower than Steins-GC (%v)",
			reps["Steins-SC"], reps["Steins-GC"])
	}
}

func TestRecoveryTimeScalesWithCacheSize(t *testing.T) {
	small, err := RecoveryAtCacheSize(SteinsGC, 8<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RecoveryAtCacheSize(SteinsGC, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if large.TimeNS < small.TimeNS*2 {
		t.Fatalf("recovery time does not scale with cache size: %v vs %v",
			small.TimeNS, large.TimeNS)
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := run(smallProfile(), SteinsGC, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(smallProfile(), SteinsGC, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("results differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	jobs := []Job{
		{Prof: smallProfile(), Scheme: WBGC, Opt: smallOpt()},
		{Prof: smallProfile(), Scheme: SteinsGC, Opt: smallOpt()},
		{Prof: smallProfile(), Scheme: STAR, Opt: smallOpt()},
	}
	par, err := RunParallel(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		ser, err := run(job.Prof, job.Scheme, job.Opt)
		if err != nil {
			t.Fatal(err)
		}
		if par[i] != ser {
			t.Fatalf("job %d: parallel result differs from serial", i)
		}
	}
}

func TestWarmupResetsStats(t *testing.T) {
	opt := smallOpt()
	opt.WarmupOps = 2000
	warm, err := run(smallProfile(), SteinsGC, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := run(smallProfile(), SteinsGC, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Ctrl.DataReads+warm.Ctrl.DataWrites != 4000 {
		t.Fatalf("measured ops = %d, want 4000 after warm-up reset",
			warm.Ctrl.DataReads+warm.Ctrl.DataWrites)
	}
	// Warming cannot hurt much (uniform traffic gains little; it must not
	// lose more than noise).
	if warm.MetaHitRate < cold.MetaHitRate-0.05 {
		t.Fatalf("warm hit rate %.3f far below cold %.3f", warm.MetaHitRate, cold.MetaHitRate)
	}
}
