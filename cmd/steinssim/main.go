// Command steinssim runs one workload through one secure-memory scheme and
// prints the controller metrics, optionally crashing and recovering at the
// end. Simulation or recovery failures exit 1 with a diagnostic; bad flags
// exit 2.
//
// Usage:
//
//	steinssim -workload cactusADM -scheme Steins-GC -ops 100000 -crash
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/stats"
	"steins/internal/trace"
)

// schemeNamed resolves a -scheme value case-insensitively.
func schemeNamed(name string) (sim.Scheme, bool) {
	for _, s := range sim.Schemes() {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return sim.Scheme{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body: 0 on success, 1 on a simulation/recovery
// failure, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("steinssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "cactusADM", "workload name (see -list)")
		scheme     = fs.String("scheme", "Steins-GC", "scheme name (see -list)")
		ops        = fs.Int("ops", 100000, "trace length in memory requests")
		seed       = fs.Uint64("seed", 1, "trace seed")
		cacheKB    = fs.Int("cache", 256, "metadata cache size in KiB")
		crash      = fs.Bool("crash", false, "crash and recover after the run")
		allDirty   = fs.Bool("alldirty", false, "force all cached metadata dirty before the crash")
		list       = fs.Bool("list", false, "list workloads and schemes")
		compare    = fs.Bool("compare", false, "run every scheme on the workload and tabulate")
		tablePath  = fs.Bool("v", false, "verbose per-class NVM breakdown")
		metricsTo  = fs.String("metrics", "", "export a metrics snapshot (phase attribution, latency histograms, occupancy time series) to this file; .csv selects CSV, anything else JSON")
		channels   = fs.Int("channels", 1, "interleave the trace across this many independent controllers (sharded engine)")
		ivMode     = fs.String("interleave", "line", "address interleave granularity for -channels: line, page, or hash")
		faultSpec  = fs.String("faults", "", "media-fault model, e.g. transient=1e-4,double=0.25,stuck=1e-6,torn=0.5,seed=7 (empty or 'off': disabled)")
		ecc        = fs.Bool("ecc", true, "model the per-word SECDED ECC layer (with -ecc=false corrupted lines return silently and only the integrity layer can catch them)")
		degraded   = fs.Bool("degraded", false, "run recovery in degraded mode: heal media-explained damage, quarantine the rest (prints the quarantine table after -crash)")
		ckptEvery  = fs.Int("checkpoint", 0, "snapshot the complete run state every N ops to -checkpoint-file (0: never)")
		ckptFile   = fs.String("checkpoint-file", "steinssim.snap", "snapshot file for -checkpoint (and the file -resume keeps current)")
		resumeFrom = fs.String("resume", "", "resume a run from this snapshot file; workload/scheme/ops flags are taken from the snapshot")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	iv, err := trace.ParseInterleave(*ivMode)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	if *channels < 1 {
		fmt.Fprintf(stderr, "-channels must be >= 1\n")
		return 2
	}
	faults, err := nvmem.ParseFaultSpec(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	configure := func(cfg *memctrl.Config) {
		cfg.NVM.Faults = faults
		cfg.NVM.ECC.Disable = !*ecc
		cfg.DegradedRecovery = *degraded
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, p := range trace.All() {
			fmt.Fprintf(stdout, "  %-14s footprint %-10s writes %.0f%%\n",
				p.Name, stats.Bytes(p.FootprintBytes), p.WriteFrac*100)
		}
		fmt.Fprint(stdout, "schemes:")
		for _, s := range sim.Schemes() {
			fmt.Fprint(stdout, " ", s.Name)
		}
		fmt.Fprintln(stdout)
		return 0
	}

	rc := runConfig{every: *ckptEvery, path: *ckptFile, crash: *crash, allDirty: *allDirty,
		metricsTo: *metricsTo, verbose: *tablePath}
	if *resumeFrom != "" {
		if *compare {
			fmt.Fprintf(stderr, "-resume is incompatible with -compare\n")
			return 2
		}
		rc.path = *resumeFrom
		return runResume(rc, stdout, stderr)
	}

	prof, ok := trace.ByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (use -list)\n", *workload)
		return 2
	}
	var mopt *metrics.Options
	if *metricsTo != "" {
		o := metrics.DefaultOptions()
		mopt = &o
	}
	so := sim.ShardOptions{Channels: *channels, Interleave: iv}
	if *compare {
		opt := sim.Options{Ops: *ops, Seed: *seed, MetaCacheBytes: *cacheKB << 10, Metrics: mopt, Configure: configure}
		if err := compareSchemes(prof, opt, so, *metricsTo, stdout); err != nil {
			fmt.Fprintf(stderr, "compare failed: %v\n", err)
			return 1
		}
		return 0
	}
	s, ok := schemeNamed(*scheme)
	if !ok {
		fmt.Fprintf(stderr, "unknown scheme %q (use -list)\n", *scheme)
		return 2
	}
	opt := sim.Options{Ops: *ops, Seed: *seed, MetaCacheBytes: *cacheKB << 10, Metrics: mopt, Configure: configure}
	h := makeHeader(prof, s, opt, *channels, iv, faults, !*ecc, *degraded)
	return finishRun(buildResumable(prof, s, opt, so), h, rc, false, stdout, stderr)
}

// printRecovery renders an aggregate recovery report.
func printRecovery(stdout io.Writer, rep memctrl.RecoveryReport) {
	fmt.Fprintf(stdout, "recovery: %d nodes, %d NVM reads, %d writes, %d MAC ops -> %s\n",
		rep.NodesRecovered, rep.NVMReads, rep.NVMWrites, rep.MACOps,
		stats.Seconds(rep.TimeNS))
	if d := &rep.Degradation; d.Degraded() {
		fmt.Fprintf(stdout, "degraded: %d healed, %d quarantined, %d unrecoverable, data-loss bound %s\n",
			len(d.Healed), len(d.Quarantined), len(d.Unrecoverable), stats.Bytes(d.DataLossBoundBytes))
		if len(d.Records) > 0 {
			qt := stats.NewTable("quarantined regions (local addresses)",
				"root", "data range", "cause", "evidence")
			for _, r := range d.Records {
				qt.AddRow(fmt.Sprintf("L%d/%d", r.Node.Level, r.Node.Index),
					fmt.Sprintf("%#x-%#x", r.DataLo, r.DataHi),
					r.Cause.String(), r.Evidence)
			}
			fmt.Fprint(stdout, qt)
		}
	}
}

// printRun renders the per-channel view and the summary tables for one
// finished run; resumed runs share it with fresh ones.
func printRun(stdout io.Writer, schemeName, workloadName string, ops, channels int, iv trace.Interleave, faultsEnabled, verbose bool, res sim.Result, shards []sim.Result) {
	if len(shards) > 1 {
		ct := stats.NewTable(fmt.Sprintf("per-channel view (%d channels, %s interleave)", channels, iv),
			"channel", "ops", "exec cycles", "traffic", "hit%")
		for k, sh := range shards {
			ct.AddRow(fmt.Sprint(k), fmt.Sprint(sh.Ops), fmt.Sprint(sh.ExecCycles),
				stats.Bytes(sh.WriteBytes), fmt.Sprintf("%.1f", sh.MetaHitRate*100))
		}
		fmt.Fprint(stdout, ct)
	}

	t := stats.NewTable(fmt.Sprintf("%s on %s (%d ops)", schemeName, workloadName, ops), "metric", "value")
	t.AddRow("execution time", fmt.Sprintf("%d cycles (%.2f ms simulated)",
		res.ExecCycles, float64(res.ExecCycles)/2e6))
	t.AddRow("avg read latency", fmt.Sprintf("%.1f cycles", res.AvgReadLat))
	t.AddRow("avg write latency", fmt.Sprintf("%.1f cycles", res.AvgWriteLat))
	t.AddRow("NVM write traffic", stats.Bytes(res.WriteBytes))
	t.AddRow("energy", fmt.Sprintf("%.2f uJ", res.EnergyPJ/1e6))
	t.AddRow("metadata cache hit rate", fmt.Sprintf("%.1f%%", res.MetaHitRate*100))
	t.AddRow("hash ops", fmt.Sprintf("%d", res.Ctrl.HashOps))
	t.AddRow("minor overflows", fmt.Sprintf("%d (re-encrypted %d blocks)",
		res.Ctrl.Overflows, res.Ctrl.Reencrypts))
	if faultsEnabled {
		t.AddRow("media read path", fmt.Sprintf("%d corrected, %d retried, %d escalated, %d unrecoverable",
			res.Ctrl.MediaCorrected, res.Ctrl.MediaRetried, res.Ctrl.MediaEscalated, res.Ctrl.MediaUnrecoverable))
		f := res.NVM.Faults
		t.AddRow("device fault events", fmt.Sprintf("%d transient flips, %d stuck bits, %d torn writes",
			f.TransientFlips, f.StuckBits, f.TornWrites))
	}
	fmt.Fprint(stdout, t)

	if verbose {
		bt := stats.NewTable("NVM accesses by class", "class", "reads", "writes")
		for cls := 0; cls < len(res.NVM.Reads); cls++ {
			if res.NVM.Reads[cls] == 0 && res.NVM.Writes[cls] == 0 {
				continue
			}
			bt.AddRow(fmt.Sprint(clsName(cls)), fmt.Sprint(res.NVM.Reads[cls]), fmt.Sprint(res.NVM.Writes[cls]))
		}
		fmt.Fprint(stdout, bt)
	}
}

// compareSchemes runs every scheme on one workload and prints a
// side-by-side table, normalised to WB-GC. With one channel the schemes
// run in parallel; with more, each scheme runs through the sharded engine
// (which parallelises internally) and the merged results are tabulated.
// When metricsTo is set, the per-scheme snapshots are exported to that
// file.
func compareSchemes(prof trace.Profile, opt sim.Options, so sim.ShardOptions, metricsTo string, stdout io.Writer) error {
	schemes := []sim.Scheme{
		sim.WBGC, sim.ASIT, sim.STAR, sim.SteinsGC,
		sim.WBSC, sim.SteinsSC, sim.SCUEGC,
		sim.PipeSITGC, sim.TriadGC,
	}
	var results []sim.Result
	if so.Channels > 1 {
		results = make([]sim.Result, len(schemes))
		for i, s := range schemes {
			sres, err := sim.RunSharded(prof, s, opt, so)
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			results[i] = sres.Merged
		}
	} else {
		jobs := make([]sim.Job, len(schemes))
		for i, s := range schemes {
			jobs[i] = sim.Job{Prof: prof, Scheme: s, Opt: opt}
		}
		var err error
		results, err = sim.RunParallel(jobs, 0)
		if err != nil {
			return err
		}
	}
	if metricsTo != "" {
		snaps := make([]*metrics.Snapshot, len(results))
		for i := range results {
			snaps[i] = results[i].Snapshot
		}
		if err := metrics.WriteSnapshotsFile(metricsTo, snaps); err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		fmt.Fprintf(stdout, "metrics snapshots written to %s\n", metricsTo)
	}
	base := results[0]
	t := stats.NewTable(fmt.Sprintf("all schemes on %s (%d ops, vs WB-GC)", prof.Name, opt.Ops),
		"scheme", "exec", "wlat", "rlat", "traffic", "energy", "hit%")
	for _, r := range results {
		t.AddRow(r.Scheme,
			stats.F(float64(r.ExecCycles)/float64(base.ExecCycles)),
			stats.F(r.AvgWriteLat/base.AvgWriteLat),
			stats.F(r.AvgReadLat/base.AvgReadLat),
			stats.F(float64(r.WriteBytes)/float64(base.WriteBytes)),
			stats.F(r.EnergyPJ/base.EnergyPJ),
			fmt.Sprintf("%.1f", r.MetaHitRate*100))
	}
	fmt.Fprint(stdout, t)
	return nil
}

func clsName(i int) string {
	names := []string{"data", "hmac", "meta", "shadow", "record", "bitmap", "other"}
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprint(i)
}
