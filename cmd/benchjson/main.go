// Command benchjson converts `go test -bench` text output into a stable
// JSON document (BENCH_N.json) and verifies such documents.
//
// The convert mode reads benchmark output on stdin (or -in) and writes
// one JSON object per benchmark: iterations, ns/op, B/op, allocs/op,
// derived ops/sec, and any custom b.ReportMetric values. The -verify mode
// re-parses an existing document and fails unless it is well-formed and
// contains every benchmark of the canonical hot-path set, so a committed
// BENCH file cannot silently rot as benchmarks are renamed.
//
// Usage:
//
//	go test -run NONE -bench . -benchmem . | benchjson -o BENCH_1.json
//	benchjson -verify BENCH_1.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped (recorded separately in Procs).
	Name       string  `json:"name"`
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// OpsPerSec is 1e9/NsPerOp — the figure the BENCH trajectory tracks.
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric values (unit -> value).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the whole BENCH_N.json payload.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// canonical is the benchmark set every committed BENCH document must
// contain: the hot-path, engine, splitter and snapshot series whose
// trajectory the repository tracks across PRs.
var canonical = []string{
	"BenchmarkHotWritePath",
	"BenchmarkHotReadPath",
	"BenchmarkRunSchemes/PipeSIT-GC",
	"BenchmarkRunSchemes/PipeSIT-SC",
	"BenchmarkRunSchemes/Triad-GC",
	"BenchmarkRunSchemes/Triad-SC",
	"BenchmarkRunSharded/1ch",
	"BenchmarkRunSharded/2ch",
	"BenchmarkRunSharded/4ch",
	"BenchmarkSplitterEpoch",
	"BenchmarkSnapshotSave",
	"BenchmarkSnapshotLoad",
	"BenchmarkGCSweepBuild",
	"BenchmarkSCSweepBuild",
	"BenchmarkServePath",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body: 0 on success, 1 on a parse/verify failure, 2
// on bad flags.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("in", "", "read benchmark text from this file instead of stdin")
		out    = fs.String("o", "", "write the JSON document here instead of stdout")
		verify = fs.String("verify", "", "verify an existing JSON document instead of converting")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *verify != "" {
		if err := verifyFile(*verify); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "benchjson: %s ok\n", *verify)
		return 0
	}
	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		src = f
	}
	doc, err := Parse(src)
	if err != nil {
		return fail(err)
	}
	if len(doc.Benchmarks) == 0 {
		return fail(fmt.Errorf("no benchmark lines found in input"))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
		return 0
	}
	_, err = stdout.Write(data)
	if err != nil {
		return fail(err)
	}
	return 0
}

// Parse reads `go test -bench` text output into a Document. Non-benchmark
// lines (PASS, ok, test logs) are skipped; malformed benchmark lines are
// an error.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// parseLine decodes one result line: a name, an iteration count, then
// value-unit pairs ("1234 ns/op", "0 allocs/op", "42.5 custom_metric").
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("benchmark line %q too short", line)
	}
	b := Benchmark{Name: f[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("benchmark %s: iteration count %q: %v", b.Name, f[1], err)
	}
	b.Iterations = iters
	rest := f[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("benchmark %s: odd value/unit tail %q", b.Name, strings.Join(rest, " "))
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("benchmark %s: value %q: %v", b.Name, rest[i], err)
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			if v > 0 {
				b.OpsPerSec = 1e9 / v
			}
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics["MB_per_s"] = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	if b.NsPerOp == 0 {
		return Benchmark{}, fmt.Errorf("benchmark %s: no ns/op figure", b.Name)
	}
	return b, nil
}

// verifyFile checks that path parses as a Document and contains every
// canonical benchmark with a positive timing figure.
func verifyFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	have := make(map[string]Benchmark, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		if b.NsPerOp <= 0 {
			return fmt.Errorf("%s: benchmark %s has non-positive ns/op %v", path, b.Name, b.NsPerOp)
		}
		if b.Iterations <= 0 {
			return fmt.Errorf("%s: benchmark %s has non-positive iterations %d", path, b.Name, b.Iterations)
		}
		have[b.Name] = b
	}
	var missing []string
	for _, name := range canonical {
		if _, ok := have[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: missing canonical benchmarks: %s", path, strings.Join(missing, ", "))
	}
	return nil
}
