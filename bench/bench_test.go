package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steins/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_sim.json from the canonical seed")

// benchmarkJSON is the part of ../BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }               `json:"workloads"`
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// quickBench is a run of workload at test size for about 0.2 s, writing
// its files to dir.
func quickBench(workload string, trace bool, dir string, out io.Writer) *bench {
	return &bench{
		opt: options{workload: workload, seed: 7, seconds: 0.2, trace: trace, workdir: dir, quick: true},
		out: out, vals: map[string]float64{},
	}
}

// runQuick runs one short workload and returns its exit code and the
// decoded last line of its output.
func runQuick(t *testing.T, workload string, trace bool) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := quickBench(workload, trace, t.TempDir(), &out).execute(&errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last output line is not the result: %v\n%s", err, out.String())
	}
	return code, res, out.String() + errOut.String()
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, want []struct{ Name, Unit, Better string }, have []metricSpec) {
		if len(want) != len(have) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(want), len(have))
		}
		for i := range want {
			if want[i].Name != have[i].name || want[i].Unit != have[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, want[i].Name, want[i].Unit, have[i].name, have[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

// Every workload, untraced and traced, must pass its checks and emit
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				code, res, out := runQuick(t, w.name, traced)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				want := bj.EndToEnd
				if traced {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

// Corrupting one shadow entry must make the read check fail the run: the
// oracle checks itself.
func TestSabotagedShadowFailsTheRun(t *testing.T) {
	var out, errOut bytes.Buffer
	b := quickBench("serve_point_zipf", false, t.TempDir(), &out)
	b.sabotage = true
	if code := b.execute(&errOut); code == 0 {
		t.Fatalf("sabotaged run exited 0\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "not version") {
		t.Fatalf("the failure is not the read check:\n%s", errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("want a result with correct=false, got %q (%v)", lines[len(lines)-1], err)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false},
	} {
		v, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: value %v, err %v; want ok=%v", c.p*100, c.n, v, err, c.ok)
		}
	}
	if v, _ := percentile(samples(100), 0.9); v != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", v)
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "sim_pers_hash", "-trace", "2"},
		{"-workload", "sim_pers_hash", "-seconds", "0"},
		{"-workload", "sim_pers_hash", "extra"},
		{"-bogus"},
		{"-workload", "sim_pers_hash", "-quick"}, // test size is not a flag
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// A traced run writes its spans, and every restart span's steps add up to
// its wall time (the run itself fails otherwise).
func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := quickBench("restart_recover", true, dir, &out).execute(&errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	f, err := os.Open(filepath.Join(dir, "spans-restart_recover.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		names[s.Name]++
	}
	for _, n := range []string{"ladder.round", "http", "server", "securemem", "multi", "memctrl", "memctrl.write",
		"restart", "snapshot.load", "server.newpool", "server.restore", "server.crash_recover", "sim.drive/4ch"} {
		if names[n] == 0 {
			t.Errorf("no %q span in %v", n, names)
		}
	}
}

// The first lap of the canonical seed must reproduce the golden simulated
// result, whether driven in one call (set-up) or in the workload's chunks:
// epoch placement never changes simulated results. -update rewrites the
// file.
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full 1M-op lap twice")
	}
	b := &bench{opt: options{seed: canonicalSeed}, vals: map[string]float64{}}
	inst, err := setupSim(b)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*simInstance)
	got := s.lap
	opt, so := s.spec.options()
	s.eng = sim.NewSharded(s.spec.prof, sim.SteinsSC, opt, so)
	for i := 0; i < s.spec.lapOps/s.spec.chunk; i++ {
		if err := s.driveChunk(s.spec.chunk); err != nil {
			t.Fatal(err)
		}
	}
	if chunked := summarize(s.eng.Result().Merged); chunked != got {
		t.Fatalf("first lap in one call\n%+v\nin chunks\n%+v", got, chunked)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden_sim.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want simSummary
	if err := json.Unmarshal(goldenSim, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("simulated first lap\n got %+v\nwant %+v", got, want)
	}
}
