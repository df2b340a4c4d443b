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
	if len(doc.Benchmarks) != 16 {
		t.Fatalf("parsed %d benchmarks, want 16", len(doc.Benchmarks))
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
