// Command bench is the repository benchmark. It drives the secure-memory
// stack only through public entry points — the HTTP handler securememd
// serves, server.Pool, securemem.Memory, multi.System, memctrl.Controller,
// the sharded simulator and the snapshot restart path — on one of four
// seeded workloads, checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set. With -trace 1 the run
// replays the workload's stream through the layer ladder instead, keeps
// every timed call as a span (written to <workdir>/spans-<workload>.jsonl
// at exit) and prints the
// per-layer set. README.md explains the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve_point_zipf --seed 1 --seconds 20 --trace 0
//
// or, inside bench/, go run . -workload sim_pers_hash -seed 1 -seconds 20.
// Exit status: 0 when every check passed, 1 on a failed or wrong
// operation or any other run failure, 2 on bad flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec names one metric and its unit; the tables below mirror
// BENCHMARK.json, which a test holds them to.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"rss_peak_mib", "MiB"},
}

var perLayer = []metricSpec{
	{"http.self_ns_per_op", "ns"},
	{"http.allocs_per_req", "count"},
	{"server.self_ns_per_op", "ns"},
	{"server.allocs_per_req", "count"},
	{"server.ops_per_batch", "count"},
	{"securemem.self_ns_per_op", "ns"},
	{"multi.self_ns_per_op", "ns"},
	{"memctrl.read_ns", "ns"},
	{"memctrl.write_ns", "ns"},
	{"memctrl.avg_read_cycles", "cycles"},
	{"memctrl.avg_write_cycles", "cycles"},
	{"memctrl.exec_cycles", "cycles"},
	{"memctrl.hash_ops_per_op", "count"},
	{"memctrl.aes_ops_per_op", "count"},
	{"memctrl.overflows_per_kop", "count"},
	{"cache.hit_rate", "ratio"},
	{"cache.dirty_evictions_per_op", "count"},
	{"nvmem.reads_per_op", "count"},
	{"nvmem.writes_per_op", "count"},
	{"nvmem.write_amp", "ratio"},
	{"nvmem.meta_writes_per_op", "count"},
	{"nvmem.record_writes_per_op", "count"},
	{"nvmem.stall_cycles_per_op", "cycles"},
	{"trace.gen_ns_per_op", "ns"},
	{"trace.split_ns_per_op", "ns"},
	{"sim.drive_ns_per_op", "ns"},
	{"sim.channel_imbalance", "ratio"},
	{"sim.speedup_4ch_vs_1ch", "ratio"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.image_mib", "MiB"},
	{"server.newpool_ms", "ms"},
	{"server.restore_ms", "ms"},
	{"server.crash_recover_ms", "ms"},
	{"recover.nodes", "count"},
	{"recover.nvm_reads", "count"},
	{"recover.mac_ops", "count"},
	{"recover.simulated_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// options are the parsed flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// quick shrinks pools, streams and set-up repetitions so a whole run
	// takes well under a second. Only the tests set it; it is not a flag.
	quick bool
}

// bench is one run's shared state: options, the metrics reported so far,
// operation counts and the span recorder (nil when untraced).
type bench struct {
	opt       options
	out       io.Writer
	specs     []metricSpec
	vals      map[string]float64
	attempted uint64
	failed    uint64
	wrong     []error // outputs that failed a check
	tr        *tracer
	genNS     []float64 // stream generation ns/op of each set-up
	// sabotage corrupts one shadow entry of the first serving client; the
	// tests use it to prove the read check catches a wrong answer.
	sabotage bool
}

// set records metric name (which must be in the run's table) and prints
// it with its unit and how it was measured.
func (b *bench) set(name string, v float64, how string) {
	unit := ""
	for _, s := range b.specs {
		if s.name == name {
			unit = s.unit
		}
	}
	if unit == "" {
		panic(fmt.Sprintf("bench: metric %q is not in this run's table", name))
	}
	b.vals[name] = v
	fmt.Fprintf(b.out, "metric %-30s %16.4f %-7s %s\n", name, v, unit, how)
}

// info prints a measurement that is not part of the JSON metric set.
func (b *bench) info(format string, args ...any) {
	fmt.Fprintf(b.out, "info   "+format+"\n", args...)
}

// outcome folds an operation's error into the run's counts: a refused or
// failed operation counts as failed, a wrong answer as a failed check.
func (b *bench) outcome(ops int, err error) {
	b.attempted += uint64(ops)
	if err == nil {
		return
	}
	if errors.Is(err, errFailed) {
		b.failed += uint64(ops)
	}
	b.wrongf(err)
}

// wrongf records a failed check; the run will exit non-zero.
func (b *bench) wrongf(err error) {
	if len(b.wrong) < 8 {
		b.wrong = append(b.wrong, err)
	}
}

// workload is one benchmark input (README.md says why each exists):
// set-up builds it (timed, repeated), and the instance then either
// measures end to end or is traced (see traceRun).
type workload struct {
	name  string
	setup func(b *bench) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// measure runs the untraced end-to-end measurement.
	measure(b *bench) error
	close()
}

var workloads = []workload{
	{"serve_point_zipf", setupPoint},
	{"serve_batch_cold", setupBatch},
	{"sim_pers_hash", setupSim},
	{"restart_recover", setupRestart},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload to run (serve_point_zipf, serve_batch_cold, sim_pers_hash, restart_recover)")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measurement length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: run the layer ladder and print per-layer metrics instead")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for checkpoint files and a traced run's spans-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || !(opt.seconds > 0) {
		fmt.Fprintln(stderr, "bench: want -workload <name> -seed <n> -seconds <s> -trace <0|1> and no arguments")
		return 2
	}
	opt.trace = traceFlag == 1
	b := &bench{opt: opt, out: stdout, vals: map[string]float64{}}
	return b.execute(stderr)
}

func (b *bench) execute(stderr io.Writer) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == b.opt.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", b.opt.workload)
		return 2
	}
	if err := os.MkdirAll(b.opt.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b.specs = endToEnd
	if b.opt.trace {
		b.specs = perLayer
		b.tr = newTracer()
	}
	fmt.Fprintf(b.out, "bench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		w.name, b.opt.seed, b.opt.seconds, b.opt.trace, runtime.GOMAXPROCS(0))
	if err := b.runWorkload(w); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, err := range b.wrong {
		fmt.Fprintf(stderr, "bench: %s: check failed: %v\n", w.name, err)
	}
	var missing []string
	for _, s := range b.specs {
		if _, ok := b.vals[s.name]; !ok {
			missing = append(missing, s.name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "bench: %s: metrics not measured: %v\n", w.name, missing)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(stderr, "bench: %s: no operation attempted\n", w.name)
		return 1
	}
	if err := b.printResult(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(b.wrong) > 0 || b.failed > 0 {
		return 1
	}
	return 0
}

// setupReps is how many times an untraced run sets its workload up; it
// reports the median, since one set-up takes 0.1–0.5 s and a single one
// spreads by tens of percent on a shared host.
const setupReps = 15

// runWorkload sets the workload up (setupReps times for an untraced run,
// reporting the median set-up time; once for a traced run, which does not
// report it), then measures or traces the last instance.
func (b *bench) runWorkload(w *workload) error {
	reps := setupReps
	if b.opt.quick || b.opt.trace {
		reps = 1
	}
	var setups []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	if b.opt.trace {
		return b.traceRun(inst)
	}
	b.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", reps))
	if err := inst.measure(b); err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	b.set("rss_peak_mib", rss, "VmHWM at exit")
	return nil
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) printResult() error {
	res := result{
		Correct:   len(b.wrong) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range b.specs {
		v := b.vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.out, "%s\n", line)
	return err
}

// deadline is when a loop measuring from start for the run's seconds may
// stop: once both the time and minSamples are reached, or at a hard cap
// that keeps a pathologically slow run inside its time limit.
type deadline struct {
	start time.Time
	run   time.Duration
}

func (b *bench) deadline() deadline {
	return deadline{start: time.Now(), run: time.Duration(b.opt.seconds * float64(time.Second))}
}

func (d deadline) done(samples int) bool {
	el := time.Since(d.start)
	return (el >= d.run && samples >= minSamples) || el >= 3*d.run+30*time.Second
}

// warmup is how long serving and simulation loops run before measuring.
func (b *bench) warmup() time.Duration {
	return min(2*time.Second, time.Duration(b.opt.seconds*float64(time.Second)/6))
}
