// Command benchjson converts `go test -bench` text output into a stable
// JSON document (BENCH_N.json), verifies such documents, and compares two
// of them.
//
// The convert mode reads benchmark output on stdin (or -in) and writes
// one JSON object per benchmark: iterations, ns/op, B/op, allocs/op,
// derived ops/sec, and any custom b.ReportMetric values. Output of
// `go test -count N` carries N result lines per benchmark; each figure is
// then recorded as the median of the N samples, with its interquartile
// spread (first and third quartiles) beside it. The -verify mode
// re-parses an existing document and fails unless it is well-formed and
// contains every benchmark of the canonical hot-path set, so a committed
// BENCH file cannot silently rot as benchmarks are renamed. The -compare
// mode prints the ns/op medians of the benchmarks two documents share and
// flags a delta only when the two interquartile spreads do not overlap,
// so run-to-run noise is not read as a change.
//
// Usage:
//
//	go test -run NONE -bench . -benchmem -count 5 . | benchjson -o BENCH_4.json
//	benchjson -verify BENCH_4.json
//	benchjson -compare BENCH_3.json BENCH_4.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"steins/internal/stats"
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
	// Samples is the number of result lines the figures above are the
	// medians of (go test -count); documents written before the field
	// carry one sample and omit it.
	Samples int `json:"samples,omitempty"`
	// Spread holds each figure's interquartile spread across the samples,
	// keyed by its JSON name ("ns_per_op", "bytes_per_op",
	// "allocs_per_op") or metric unit; present when Samples > 1.
	Spread map[string]Spread `json:"spread,omitempty"`
}

// Spread is the first and third quartile of one figure across samples.
type Spread struct {
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
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
// contain: the hot-path, engine, splitter, snapshot, serving and recovery
// series whose trajectory the repository tracks across PRs. Each entry
// names the document revision (the N of BENCH_N.json) it joined the set
// at, so a document is held to the set of its own revision.
var canonical = []struct {
	name  string
	since int
}{
	{"BenchmarkHotWritePath", 1},
	{"BenchmarkHotReadPath", 1},
	{"BenchmarkRunSharded/1ch", 1},
	{"BenchmarkRunSharded/2ch", 1},
	{"BenchmarkRunSharded/4ch", 1},
	{"BenchmarkSplitterEpoch", 1},
	{"BenchmarkSnapshotSave", 1},
	{"BenchmarkSnapshotLoad", 1},
	{"BenchmarkGCSweepBuild", 1},
	{"BenchmarkSCSweepBuild", 1},
	{"BenchmarkRunSchemes/PipeSIT-GC", 2},
	{"BenchmarkRunSchemes/PipeSIT-SC", 2},
	{"BenchmarkRunSchemes/Triad-GC", 2},
	{"BenchmarkRunSchemes/Triad-SC", 2},
	{"BenchmarkServePath", 3},
	{"BenchmarkRecoveryDowntime/ASIT", 4},
	{"BenchmarkRecoveryDowntime/STAR", 4},
	{"BenchmarkRecoveryDowntime/Steins-GC", 4},
	{"BenchmarkRecoveryDowntime/Steins-SC", 4},
	{"BenchmarkRecoveryDowntime/Triad-GC", 4},
	{"BenchmarkRecoveryDowntime/Triad-SC", 4},
	{"BenchmarkRecoveryDowntime/SCUE-GC", 4},
	{"BenchmarkRecoveryDowntime/SCUE-SC", 4},
	{"BenchmarkRecoveryDowntime/PipeSIT-GC", 4},
	{"BenchmarkRecoveryDowntime/PipeSIT-SC", 4},
	{"BenchmarkServerRestart/load", 5},
	{"BenchmarkServerRestart/restore", 5},
	{"BenchmarkServerRestart/recover", 5},
}

// revision returns the N of a path named BENCH_N.json, or 0 when the name
// carries no revision.
func revision(path string) int {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"))
	if err != nil || n < 1 {
		return 0
	}
	return n
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
		in      = fs.String("in", "", "read benchmark text from this file instead of stdin")
		out     = fs.String("o", "", "write the JSON document here instead of stdout")
		verify  = fs.String("verify", "", "verify an existing JSON document instead of converting")
		compare = fs.Bool("compare", false, "compare two JSON documents given as arguments: old new")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	wantArgs := 0
	if *compare {
		wantArgs = 2
	}
	if fs.NArg() != wantArgs {
		fmt.Fprintln(stderr, "benchjson: -compare takes exactly two documents (old new); other modes take none")
		return 2
	}
	if *compare {
		old, err := readDocument(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		cur, err := readDocument(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		writeComparison(stdout, old, cur)
		return 0
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
// an error. Result lines of one benchmark at one GOMAXPROCS (go test
// -count N) fold into one entry of medians and spreads.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	var order []string
	groups := map[string][]result{}
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
		res, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		key := res.name + "-" + strconv.Itoa(res.procs)
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, key := range order {
		doc.Benchmarks = append(doc.Benchmarks, aggregate(groups[key]))
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// result is one result line: its figures keyed by their JSON names.
type result struct {
	name  string
	procs int
	iters int64
	vals  map[string]float64
}

// aggregate folds one benchmark's samples into its entry: every figure is
// the median of the samples that report it, with its spread when there is
// more than one sample.
func aggregate(results []result) Benchmark {
	b := Benchmark{Name: results[0].name, Procs: results[0].procs, Samples: len(results)}
	iters := make([]float64, len(results))
	byKey := map[string][]float64{}
	for i, res := range results {
		iters[i] = float64(res.iters)
		for k, v := range res.vals {
			byKey[k] = append(byKey[k], v)
		}
	}
	b.Iterations = int64(stats.Median(iters))
	for k, vals := range byKey {
		med := stats.Median(vals)
		switch k {
		case "ns_per_op":
			b.NsPerOp = med
			b.OpsPerSec = 1e9 / med
		case "bytes_per_op":
			b.BytesPerOp = med
		case "allocs_per_op":
			b.AllocsPerOp = med
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[k] = med
		}
		if len(results) > 1 {
			if b.Spread == nil {
				b.Spread = map[string]Spread{}
			}
			q1, q3 := stats.Quartiles(vals)
			b.Spread[k] = Spread{Q1: q1, Q3: q3}
		}
	}
	return b
}

// parseLine decodes one result line: a name, an iteration count, then
// value-unit pairs ("1234 ns/op", "0 allocs/op", "42.5 custom_metric").
func parseLine(line string) (result, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return result{}, fmt.Errorf("benchmark line %q too short", line)
	}
	res := result{name: f[0], procs: 1, vals: map[string]float64{}}
	if i := strings.LastIndex(res.name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.name[i+1:]); err == nil && p > 0 {
			res.name, res.procs = res.name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, fmt.Errorf("benchmark %s: iteration count %q: %v", res.name, f[1], err)
	}
	res.iters = iters
	rest := f[2:]
	if len(rest)%2 != 0 {
		return result{}, fmt.Errorf("benchmark %s: odd value/unit tail %q", res.name, strings.Join(rest, " "))
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return result{}, fmt.Errorf("benchmark %s: value %q: %v", res.name, rest[i], err)
		}
		key := rest[i+1]
		switch key {
		case "ns/op":
			key = "ns_per_op"
		case "B/op":
			key = "bytes_per_op"
		case "allocs/op":
			key = "allocs_per_op"
		case "MB/s":
			key = "MB_per_s"
		}
		res.vals[key] = v
	}
	if res.vals["ns_per_op"] <= 0 {
		return result{}, fmt.Errorf("benchmark %s: no ns/op figure", res.name)
	}
	return res, nil
}

// readDocument loads a JSON document.
func readDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// nsSpread returns a benchmark's ns/op interquartile spread; a
// one-sample entry's spread is its single value.
func nsSpread(b Benchmark) Spread {
	if sp, ok := b.Spread["ns_per_op"]; ok {
		return sp
	}
	return Spread{Q1: b.NsPerOp, Q3: b.NsPerOp}
}

// writeComparison prints, for every benchmark both documents hold, the
// old and new ns/op medians with their sample counts and the relative
// delta. A delta is flagged "outside spread" only when the two
// interquartile spreads do not overlap; otherwise it reads "~" (within
// noise). One-sample entries have no spread to speak of, so any
// difference between two of them is flagged. Entries recorded at
// different GOMAXPROCS are still compared, with both values named.
func writeComparison(w io.Writer, old, cur *Document) {
	prev := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	fmt.Fprintf(w, "%-44s %16s %16s %9s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "verdict")
	for _, b := range cur.Benchmarks {
		o, ok := prev[b.Name]
		if !ok {
			continue
		}
		oq, nq := nsSpread(o), nsSpread(b)
		verdict := "~"
		if nq.Q3 < oq.Q1 || nq.Q1 > oq.Q3 {
			verdict = "outside spread"
		}
		if o.Procs != b.Procs {
			verdict += fmt.Sprintf(" (GOMAXPROCS %d vs %d)", o.Procs, b.Procs)
		}
		fmt.Fprintf(w, "%-44s %11.4g n=%-2d %11.4g n=%-2d %+8.1f%%  %s\n", b.Name,
			o.NsPerOp, max(o.Samples, 1), b.NsPerOp, max(b.Samples, 1),
			100*(b.NsPerOp-o.NsPerOp)/o.NsPerOp, verdict)
	}
}

// verifyFile checks that path parses as a Document and contains every
// canonical benchmark of its revision (all of them when the file name
// carries none) with a positive timing figure.
func verifyFile(path string) error {
	doc, err := readDocument(path)
	if err != nil {
		return err
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
	rev := revision(path)
	var missing []string
	for _, c := range canonical {
		if _, ok := have[c.name]; !ok && (rev == 0 || c.since <= rev) {
			missing = append(missing, c.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: missing canonical benchmarks: %s", path, strings.Join(missing, ", "))
	}
	return nil
}
