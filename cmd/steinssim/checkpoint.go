// Checkpoint/resume wiring: -checkpoint N writes a snapshot of the whole
// run every N operations; -resume continues a snapshotted run to
// completion in a fresh process, producing byte-identical metrics to the
// uninterrupted run.

package main

import (
	"fmt"
	"io"

	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/snapshot"
	"steins/internal/trace"
)

// makeHeader records the flag-derived run configuration in the snapshot
// header, so a fresh process can rebuild the identical run from the file
// alone.
func makeHeader(prof trace.Profile, s sim.Scheme, opt sim.Options, channels int, iv trace.Interleave, faults nvmem.FaultConfig, eccDisable, degraded bool) snapshot.RunHeader {
	h := snapshot.RunHeader{
		Workload:         prof.Name,
		Scheme:           s.Name,
		TotalOps:         opt.Ops,
		WarmupOps:        opt.WarmupOps,
		Seed:             opt.Seed,
		DataBytes:        opt.DataBytes,
		MetaCacheBytes:   opt.MetaCacheBytes,
		Channels:         channels,
		Interleave:       iv,
		Faults:           faults,
		ECCDisable:       eccDisable,
		DegradedRecovery: degraded,
	}
	if opt.Metrics != nil {
		h.HasMetrics = true
		h.Metrics = *opt.Metrics
	}
	return h
}

// buildResumable constructs a fresh run: the engine and the generator
// positioned at the start of the trace.
func buildResumable(prof trace.Profile, s sim.Scheme, opt sim.Options, so sim.ShardOptions) *snapshot.Resumed {
	return &snapshot.Resumed{Profile: prof, Scheme: s,
		Gen:     trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops),
		Sharded: sim.NewSharded(prof, s, opt, so)}
}

// driveResumable drives the run to trace exhaustion; with every > 0 it
// snapshots the complete system to path each time that many further ops
// retire. It returns how many snapshots were written.
func driveResumable(r *snapshot.Resumed, h snapshot.RunHeader, every int, path string) (int, error) {
	chunk := -1
	if every > 0 {
		chunk = every
	}
	saved := 0
	for {
		n, err := r.Sharded.DriveStreamN(r.Gen, chunk)
		if err != nil {
			return saved, err
		}
		if every > 0 && n > 0 {
			st, err := snapshot.CaptureSharded(h, r.Gen, r.Sharded)
			if err != nil {
				return saved, err
			}
			if err := snapshot.SaveFile(path, st); err != nil {
				return saved, err
			}
			saved++
		}
		if chunk < 0 || n < chunk {
			return saved, nil
		}
	}
}

// runConfig is what a run does once its engine is built.
type runConfig struct {
	every           int    // checkpoint interval in ops (0: never)
	path            string // checkpoint file
	crash, allDirty bool
	metricsTo       string
	verbose         bool
}

// finishRun is the one path every fresh, checkpointed and resumed run
// takes once its engine is built: drive to the end of the trace
// (checkpointing as rc asks), collect the results, then with rc.crash
// crash, recover and probe the system, export metrics and print the
// tables. The results are collected before the crash, so a run reports
// the same figures however it got there. A resumed run names a failed
// recovery as such; a fresh one reports any failure as a failed
// simulation. It returns the exit code: 0 success, 1 failure.
func finishRun(r *snapshot.Resumed, h snapshot.RunHeader, rc runConfig, resumed bool, stdout, stderr io.Writer) int {
	if _, err := driveResumable(r, h, rc.every, rc.path); err != nil {
		fmt.Fprintf(stderr, "simulation failed: %v\n", err)
		return 1
	}
	res := r.Sharded.Result()
	if rc.crash {
		rep, err := r.Sharded.CrashRecover(rc.allDirty)
		if err != nil {
			failed := "simulation failed"
			if resumed {
				failed = "recovery failed"
			}
			fmt.Fprintf(stderr, "%s: %v\n", failed, err)
			return 1
		}
		printRecovery(stdout, rep)
	}
	if rc.every > 0 && !resumed {
		fmt.Fprintf(stdout, "checkpoints written to %s every %d ops\n", rc.path, rc.every)
	}
	if rc.metricsTo != "" {
		if res.Merged.Snapshot == nil {
			fmt.Fprintf(stderr, "metrics export failed: the snapshot was captured without metrics collection\n")
			return 1
		}
		if err := metrics.WriteSnapshotsFile(rc.metricsTo, []*metrics.Snapshot{res.Merged.Snapshot}); err != nil {
			fmt.Fprintf(stderr, "metrics export failed: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics snapshot written to %s\n", rc.metricsTo)
	}
	printRun(stdout, h.Scheme, h.Workload, h.TotalOps, h.Channels, h.Interleave, h.Faults.Enabled(), rc.verbose, res.Merged, res.Shards)
	return 0
}

// runResume is the -resume entry point: load the snapshot at rc.path,
// rebuild the run, and finish it like a fresh one (keeping the snapshot
// current when rc.every > 0).
func runResume(rc runConfig, stdout, stderr io.Writer) int {
	st, err := snapshot.LoadFile[snapshot.RunState](rc.path)
	if err != nil {
		fmt.Fprintf(stderr, "resume %s: %v\n", rc.path, err)
		return 1
	}
	r, err := st.Resume()
	if err != nil {
		fmt.Fprintf(stderr, "resume %s: %v\n", rc.path, err)
		return 1
	}
	h := st.Header
	fmt.Fprintf(stdout, "resumed %s/%s at op %d of %d (+%d warm-up)\n",
		h.Workload, h.Scheme, r.Sharded.Driven(), h.TotalOps+h.WarmupOps, h.WarmupOps)
	return finishRun(r, h, rc, true, stdout, stderr)
}
