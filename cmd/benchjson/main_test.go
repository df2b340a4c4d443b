package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: steins
cpu: Example CPU @ 2.70GHz
BenchmarkHotWritePath-8          	  850000	      1207 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotReadPath-8           	  700000	      1640 ns/op	       0 B/op	       0 allocs/op
BenchmarkRunUnsharded-8          	      79	  14919836 ns/op	         1340 ops_per_sec	 3597904 B/op	   13242 allocs/op
BenchmarkRunSchemes/PipeSIT-GC-8 	      80	  14500000 ns/op	         1379 ops_per_sec	 3500000 B/op	   13000 allocs/op
BenchmarkRunSchemes/PipeSIT-SC-8 	      78	  15100000 ns/op	         1324 ops_per_sec	 3600000 B/op	   13300 allocs/op
BenchmarkRunSchemes/Triad-GC-8   	      70	  16800000 ns/op	         1190 ops_per_sec	 3700000 B/op	   13500 allocs/op
BenchmarkRunSchemes/Triad-SC-8   	      68	  17200000 ns/op	         1163 ops_per_sec	 3800000 B/op	   13600 allocs/op
BenchmarkRunSharded/1ch-8        	      60	  19000000 ns/op	 4000000 B/op	   14000 allocs/op
BenchmarkRunSharded/2ch-8        	      62	  18600000 ns/op	 4100000 B/op	   14100 allocs/op
BenchmarkRunSharded/4ch-8        	      64	  18763867 ns/op	 4200000 B/op	   14200 allocs/op
BenchmarkSplitterEpoch-8         	   16000	     72500 ns/op	       0 B/op	       0 allocs/op
BenchmarkSnapshotSave-8          	     320	   3700000 ns/op	  250000 snapshot_bytes	     896 allocs_per_save	  900000 B/op	     896 allocs/op
BenchmarkSnapshotLoad-8          	     430	   2770000 ns/op	  90.25 MB/s	 1200000 B/op	    2000 allocs/op
BenchmarkGCSweepBuild-8          	       2	 900000000 ns/op
BenchmarkSCSweepBuild-8          	       3	 700000000 ns/op
BenchmarkServePath-8             	  250000	      4100 ns/op	        64.00 ops_per_batch	     700 B/op	      10 allocs/op
BenchmarkRecoveryDowntime/ASIT-8       	    2000	    556820 ns/op	         0.5568 host_ms	         2.003 host_per_sim	      1097 macs	      1024 nvm_reads	         0.2779 sim_ms
BenchmarkRecoveryDowntime/STAR-8       	    1000	    958753 ns/op	         0.9588 host_ms	         1.988 host_per_sim	      1044 macs	      4614 nvm_reads	         0.4823 sim_ms
BenchmarkRecoveryDowntime/Steins-GC-8  	    1000	    869430 ns/op	         0.8694 host_ms	         1.907 host_per_sim	      1915 macs	      4177 nvm_reads	         0.4560 sim_ms
BenchmarkRecoveryDowntime/Steins-SC-8  	     700	   1738010 ns/op	         1.738 host_ms	         0.8517 host_per_sim	      3243 macs	     19758 nvm_reads	         2.041 sim_ms
BenchmarkRecoveryDowntime/Triad-GC-8   	    2000	    514237 ns/op	         0.5142 host_ms	         1.632 host_per_sim	      1196 macs	      2048 nvm_reads	         0.3151 sim_ms
BenchmarkRecoveryDowntime/Triad-SC-8   	    1000	   1036059 ns/op	         1.036 host_ms	         3.315 host_per_sim	      1067 macs	      2048 nvm_reads	         0.3125 sim_ms
BenchmarkRecoveryDowntime/SCUE-GC-8    	    2000	    454671 ns/op	         0.4547 host_ms	         0.6897 host_per_sim	      1275 macs	      4608 nvm_reads	         0.6591 sim_ms
BenchmarkRecoveryDowntime/SCUE-SC-8    	    1000	   1474554 ns/op	         1.475 host_ms	         0.4162 host_per_sim	      2104 macs	     33280 nvm_reads	         3.543 sim_ms
BenchmarkRecoveryDowntime/PipeSIT-GC-8 	    2000	    443942 ns/op	         0.4439 host_ms	         0.6735 host_per_sim	      1275 macs	      4608 nvm_reads	         0.6591 sim_ms
BenchmarkRecoveryDowntime/PipeSIT-SC-8 	    1000	   1230041 ns/op	         1.230 host_ms	         0.3472 host_per_sim	      2104 macs	     33280 nvm_reads	         3.543 sim_ms
BenchmarkServerRestart/load-8         	     200	   3431382 ns/op	 8351683 B/op	    2469 allocs/op
BenchmarkServerRestart/restore-8      	     200	   1775494 ns/op	 1965499 B/op	    2881 allocs/op
BenchmarkServerRestart/recover-8      	     200	   5080044 ns/op	  560601 B/op	    2295 allocs/op
PASS
ok  	steins	42.000s
`

func TestParseSample(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Pkg != "steins" || doc.CPU != "Example CPU @ 2.70GHz" {
		t.Fatalf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 29 {
		t.Fatalf("parsed %d benchmarks, want 29", len(doc.Benchmarks))
	}
	byName := map[string]Benchmark{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	hw := byName["BenchmarkHotWritePath"]
	if hw.Procs != 8 || hw.Iterations != 850000 || hw.NsPerOp != 1207 {
		t.Fatalf("HotWritePath = %+v", hw)
	}
	if hw.OpsPerSec < 828000 || hw.OpsPerSec > 829000 {
		t.Fatalf("HotWritePath ops/sec = %v", hw.OpsPerSec)
	}
	ru := byName["BenchmarkRunUnsharded"]
	if ru.Metrics["ops_per_sec"] != 1340 || ru.AllocsPerOp != 13242 {
		t.Fatalf("RunUnsharded = %+v", ru)
	}
	sl := byName["BenchmarkSnapshotLoad"]
	if sl.Metrics["MB_per_s"] != 90.25 {
		t.Fatalf("SnapshotLoad = %+v", sl)
	}
	// Output ordering is name-sorted, so re-rendering is deterministic.
	for i := 1; i < len(doc.Benchmarks); i++ {
		if doc.Benchmarks[i-1].Name > doc.Benchmarks[i].Name {
			t.Fatalf("benchmarks not sorted: %q after %q",
				doc.Benchmarks[i].Name, doc.Benchmarks[i-1].Name)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",                    // no iterations
		"BenchmarkX notanumber 5 ns/op", // bad count
		"BenchmarkX 10 5",               // odd tail
		"BenchmarkX 10 bad ns/op",       // bad value
		"BenchmarkX 10 7 B/op",          // no ns/op
	} {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("line %q parsed without error", line)
		}
	}
}

func TestConvertAndVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out}, strings.NewReader(sample), &stdout, &stderr); code != 0 {
		t.Fatalf("convert exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	stderr.Reset()
	if code := run([]string{"-verify", out}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("verify exited %d: %s", code, stderr.String())
	}
}

func TestVerifyCatchesMissingCanonical(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_missing.json")
	doc := Document{Benchmarks: []Benchmark{
		{Name: "BenchmarkHotWritePath", Procs: 8, Iterations: 10, NsPerOp: 5, OpsPerSec: 2e8},
	}}
	data, _ := json.Marshal(doc)
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-verify", out}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("verify of incomplete doc exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "missing canonical") {
		t.Fatalf("verify error %q does not name the missing set", stderr.String())
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(out, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-verify", out}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("verify of garbage exited %d, want 1", code)
	}
}

// countSample is `go test -count 5` output for two benchmarks: five result
// lines each, in the interleaved order go test prints them.
const countSample = `pkg: steins
BenchmarkA-2   	100	  500 ns/op	  10 B/op	 1 allocs/op	 3.0 host_ms
BenchmarkB-2   	 10	 9000 ns/op
BenchmarkA-2   	100	  100 ns/op	  10 B/op	 1 allocs/op	 1.0 host_ms
BenchmarkB-2   	 10	 8000 ns/op
BenchmarkA-2   	120	  300 ns/op	  10 B/op	 1 allocs/op	 2.0 host_ms
BenchmarkB-2   	 12	 7000 ns/op
BenchmarkA-2   	100	  200 ns/op	  20 B/op	 1 allocs/op	 9.0 host_ms
BenchmarkB-2   	 10	 6000 ns/op
BenchmarkA-2   	 90	  400 ns/op	  10 B/op	 1 allocs/op	 4.0 host_ms
BenchmarkB-2   	 10	 5000 ns/op
`

func TestParseCountMedianAndSpread(t *testing.T) {
	doc, err := Parse(strings.NewReader(countSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want the 2 distinct ones", len(doc.Benchmarks))
	}
	a := doc.Benchmarks[0]
	if a.Name != "BenchmarkA" || a.Samples != 5 || a.Iterations != 100 {
		t.Fatalf("A = %+v", a)
	}
	if a.NsPerOp != 300 || a.OpsPerSec != 1e9/300 || a.BytesPerOp != 10 || a.AllocsPerOp != 1 || a.Metrics["host_ms"] != 3 {
		t.Fatalf("A medians = %+v", a)
	}
	if sp := a.Spread["ns_per_op"]; sp != (Spread{Q1: 200, Q3: 400}) {
		t.Fatalf("A ns/op spread = %+v, want [200, 400]", sp)
	}
	if sp := a.Spread["host_ms"]; sp != (Spread{Q1: 2, Q3: 4}) {
		t.Fatalf("A host_ms spread = %+v, want [2, 4]", sp)
	}
	if b := doc.Benchmarks[1]; b.NsPerOp != 7000 || b.Spread["ns_per_op"] != (Spread{Q1: 6000, Q3: 8000}) {
		t.Fatalf("B = %+v", b)
	}
}

func TestCompareFlagsOnlyDeltasOutsideSpread(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, bs ...Benchmark) string {
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(Document{Benchmarks: bs})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	entry := func(name string, med, q1, q3 float64) Benchmark {
		return Benchmark{Name: name, Procs: 2, Iterations: 10, NsPerOp: med, Samples: 5,
			Spread: map[string]Spread{"ns_per_op": {Q1: q1, Q3: q3}}}
	}
	old := write("old.json", entry("BenchmarkFaster", 1000, 950, 1050),
		entry("BenchmarkNoisy", 1000, 900, 1100), entry("BenchmarkGone", 5, 4, 6))
	noisy := entry("BenchmarkNoisy", 1060, 1000, 1150)
	noisy.Procs = 4
	cur := write("new.json", entry("BenchmarkFaster", 600, 580, 640), noisy, entry("BenchmarkAdded", 7, 6, 8))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", old, cur}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("compare exited %d: %s", code, stderr.String())
	}
	lines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:] {
		lines[strings.Fields(l)[0]] = l
	}
	if len(lines) != 2 {
		t.Fatalf("compare printed %d rows, want the 2 shared benchmarks:\n%s", len(lines), stdout.String())
	}
	if l := lines["BenchmarkFaster"]; !strings.Contains(l, "-40.0%") || !strings.HasSuffix(l, "outside spread") {
		t.Errorf("disjoint spreads not flagged: %q", l)
	}
	if l := lines["BenchmarkNoisy"]; !strings.Contains(l, "+6.0%") || !strings.HasSuffix(l, "~ (GOMAXPROCS 2 vs 4)") {
		t.Errorf("overlapping spreads flagged, or GOMAXPROCS change not named: %q", l)
	}
	for _, args := range [][]string{{"-compare", old}, {old, cur}, {"-compare", old, cur, cur}} {
		if code := run(args, nil, &stdout, &stderr); code != 2 {
			t.Errorf("run %q exited %d, want 2", args, code)
		}
	}
}

// TestVerifyHoldsEachRevisionToItsSet checks every committed BENCH
// document against the canonical set of its own revision, and a document
// named for revision 4 without the recovery series against revision 4's.
func TestVerifyHoldsEachRevisionToItsSet(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(committed) < 3 {
		t.Fatalf("committed BENCH documents: %v (err %v)", committed, err)
	}
	for _, path := range committed {
		if err := verifyFile(path); err != nil {
			t.Error(err)
		}
	}
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var kept []Benchmark
	for _, b := range doc.Benchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkRecoveryDowntime/") {
			kept = append(kept, b)
		}
	}
	data, _ := json.Marshal(Document{Benchmarks: kept})
	dir := t.TempDir()
	for rev, wantErr := range map[string]bool{"BENCH_3.json": false, "BENCH_4.json": true} {
		path := filepath.Join(dir, rev)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := verifyFile(path)
		if (err != nil) != wantErr {
			t.Errorf("%s without the recovery series: err = %v, want error %v", rev, err, wantErr)
		}
		if wantErr && err != nil && !strings.Contains(err.Error(), "BenchmarkRecoveryDowntime/Steins-SC") {
			t.Errorf("%s: error %q does not name the missing recovery series", rev, err)
		}
	}
}
