package schemetest

import (
	"errors"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/sim"
	"steins/internal/trace"
)

// This file is the cross-scheme, cross-channel conformance harness: the
// same trace is replayed through every scheme on both the 1-channel
// reference engine and N-channel interleaved configurations, and the runs
// are compared differentially. The invariants are exact — retired-op
// counts, per-address final counter state, and per-shard statistic sums
// must match bit-for-bit, not approximately.

// ConformanceProfile is the conformance trace: uniform mixed traffic over
// a footprint small enough to churn a divided metadata cache yet large
// enough that per-line write counts stay far below counter.MinorMax — an
// SC minor overflow re-encrypts a whole leaf group and would break the
// exact counter-equals-write-count invariant (the harness asserts zero
// overflows so a violation is loud, not silent).
func ConformanceProfile() trace.Profile {
	return trace.Profile{
		Name:           "conformance",
		FootprintBytes: 256 << 10,
		WriteFrac:      0.6,
		GapMean:        12,
		Pattern:        trace.Uniform,
	}
}

// ConformanceOptions returns the run options the harness uses: a metadata
// cache small enough that every channel count still evicts.
func ConformanceOptions(ops int) sim.Options {
	return sim.Options{Ops: ops, Seed: 99, MetaCacheBytes: 16 << 10}
}

// TraceModel is the trace oracle: per-line write counts and the global
// ordinal of the last write to each line, derived from the generator alone
// (no simulation), so both engines are checked against an independent
// reference.
type TraceModel struct {
	Writes map[uint64]uint64
	Last   map[uint64]int
	Ops    int
}

// BuildModel replays the generated trace into a TraceModel.
func BuildModel(prof trace.Profile, opt sim.Options) *TraceModel {
	m := &TraceModel{Writes: make(map[uint64]uint64), Last: make(map[uint64]int)}
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	for {
		op, ok := g.Next()
		if !ok {
			return m
		}
		if op.IsWrite {
			m.Writes[op.Addr]++
			m.Last[op.Addr] = m.Ops
		}
		m.Ops++
	}
}

// driveSharded builds an engine and replays the conformance trace.
func driveSharded(t *testing.T, s sim.Scheme, prof trace.Profile, opt sim.Options, so sim.ShardOptions) (*sim.Sharded, sim.ShardedResult) {
	t.Helper()
	e := sim.NewSharded(prof, s, opt, so)
	if err := e.DriveStream(trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)); err != nil {
		t.Fatalf("drive (%d channels, %s): %v", so.Channels, so.Interleave, err)
	}
	return e, e.Result()
}

// CheckMergedSums verifies the merged result is exactly the fold of the
// per-shard results: additive statistics sum, the makespan is the parallel
// maximum, and every shard's phase buckets partition its own makespan.
func CheckMergedSums(t *testing.T, e *sim.Sharded, res *sim.ShardedResult) {
	t.Helper()
	var sum memctrl.Stats
	var ops int
	var exec, writeBytes uint64
	for i := range res.Shards {
		sh := &res.Shards[i]
		sum.Merge(&sh.Ctrl)
		ops += sh.Ops
		writeBytes += sh.WriteBytes
		if sh.ExecCycles > exec {
			exec = sh.ExecCycles
		}
	}
	m := &res.Merged
	if m.Ops != ops {
		t.Fatalf("merged ops %d != shard sum %d", m.Ops, ops)
	}
	if m.ExecCycles != exec {
		t.Fatalf("merged exec %d != shard max %d", m.ExecCycles, exec)
	}
	if m.WriteBytes != writeBytes {
		t.Fatalf("merged write bytes %d != shard sum %d", m.WriteBytes, writeBytes)
	}
	if m.Ctrl.DataReads != sum.DataReads || m.Ctrl.DataWrites != sum.DataWrites ||
		m.Ctrl.ReadLatSum != sum.ReadLatSum || m.Ctrl.WriteLatSum != sum.WriteLatSum ||
		m.Ctrl.HashOps != sum.HashOps || m.Ctrl.AESOps != sum.AESOps ||
		m.Ctrl.Overflows != sum.Overflows || m.Ctrl.Reencrypts != sum.Reencrypts {
		t.Fatalf("merged controller stats are not the exact shard sum:\nmerged %+v\nsum    %+v",
			statsHead(&m.Ctrl), statsHead(&sum))
	}
	for k, c := range e.Controllers() {
		st := c.Stats()
		if got, want := st.MakespanPhaseCycles(), c.MeasuredExecCycles(); got != want {
			t.Fatalf("channel %d: phase buckets %d do not partition makespan %d", k, got, want)
		}
	}
}

// statsHead projects the additive counters for failure messages.
func statsHead(s *memctrl.Stats) map[string]uint64 {
	return map[string]uint64{
		"DataReads": s.DataReads, "DataWrites": s.DataWrites,
		"ReadLatSum": s.ReadLatSum, "WriteLatSum": s.WriteLatSum,
		"HashOps": s.HashOps, "AESOps": s.AESOps,
		"Overflows": s.Overflows, "Reencrypts": s.Reencrypts,
	}
}

// checkFinalState reads every written line back through the engine and
// compares data and encryption-counter state against the trace oracle.
func checkFinalState(t *testing.T, label string, e *sim.Sharded, m *TraceModel) {
	t.Helper()
	for addr, writes := range m.Writes {
		if got := e.DataCounter(addr); got != writes {
			t.Fatalf("%s: line %#x counter %d, oracle says %d writes", label, addr, got, writes)
		}
		got, err := e.ReadGlobal(1, addr)
		if err != nil {
			t.Fatalf("%s: read %#x: %v", label, addr, err)
		}
		if want := sim.Payload(addr, m.Last[addr]); got != want {
			t.Fatalf("%s: line %#x holds wrong data (last writer op %d)", label, addr, m.Last[addr])
		}
	}
}

// DiffSharded is the tentpole differential check: the same trace through
// the same scheme on 1 channel and on N channels must retire the same
// operations, leave every line with identical data and identical counter
// state, and produce merged statistics that are the exact shard sums.
func DiffSharded(t *testing.T, s sim.Scheme, channels int, iv trace.Interleave) {
	t.Helper()
	prof := ConformanceProfile()
	opt := ConformanceOptions(5000)
	m := BuildModel(prof, opt)

	base, baseRes := driveSharded(t, s, prof, opt, sim.ShardOptions{Channels: 1})
	shard, shardRes := driveSharded(t, s, prof, opt, sim.ShardOptions{Channels: channels, Interleave: iv})

	if baseRes.Merged.Ops != m.Ops || shardRes.Merged.Ops != m.Ops {
		t.Fatalf("retired ops diverge: base %d, sharded %d, trace %d",
			baseRes.Merged.Ops, shardRes.Merged.Ops, m.Ops)
	}
	if baseRes.Merged.Ctrl.DataWrites != shardRes.Merged.Ctrl.DataWrites ||
		baseRes.Merged.Ctrl.DataReads != shardRes.Merged.Ctrl.DataReads {
		t.Fatalf("data op counts diverge: base %d/%d, sharded %d/%d",
			baseRes.Merged.Ctrl.DataReads, baseRes.Merged.Ctrl.DataWrites,
			shardRes.Merged.Ctrl.DataReads, shardRes.Merged.Ctrl.DataWrites)
	}
	if baseRes.Merged.Ctrl.Overflows != 0 || shardRes.Merged.Ctrl.Overflows != 0 {
		t.Fatalf("conformance trace overflowed a minor counter (base %d, sharded %d); shrink it",
			baseRes.Merged.Ctrl.Overflows, shardRes.Merged.Ctrl.Overflows)
	}
	CheckMergedSums(t, base, &baseRes)
	CheckMergedSums(t, shard, &shardRes)
	checkFinalState(t, "base", base, m)
	checkFinalState(t, "sharded", shard, m)
}

// DiffShardedCrash drives the sharded engine, forces every cached node
// dirty (§IV-D), crashes the whole machine, recovers channel by channel,
// and checks the recovery reports aggregate consistently (work summed,
// time the parallel maximum), the persisted trees audit clean, and the
// data and counters survive intact. Schemes without a recovery path (the
// write-back baselines) are skipped.
func DiffShardedCrash(t *testing.T, s sim.Scheme, channels int, iv trace.Interleave) {
	t.Helper()
	prof := ConformanceProfile()
	opt := ConformanceOptions(5000)
	m := BuildModel(prof, opt)

	e, _ := driveSharded(t, s, prof, opt, sim.ShardOptions{Channels: channels, Interleave: iv})
	e.ForceAllDirty()
	e.Crash()
	reports, agg, err := e.Recover()
	if errors.Is(err, memctrl.ErrNoRecovery) {
		t.Skipf("%s has no recovery path", s.Name)
	}
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	var nodes, reads, writes, macs uint64
	var maxNS float64
	for k, rep := range reports {
		if rep.TimeNS <= 0 || rep.NVMReads == 0 {
			t.Fatalf("channel %d: implausible recovery report %+v", k, rep)
		}
		nodes += rep.NodesRecovered
		reads += rep.NVMReads
		writes += rep.NVMWrites
		macs += rep.MACOps
		if rep.TimeNS > maxNS {
			maxNS = rep.TimeNS
		}
	}
	if agg.NodesRecovered != nodes || agg.NVMReads != reads ||
		agg.NVMWrites != writes || agg.MACOps != macs || agg.TimeNS != maxNS {
		t.Fatalf("aggregate report is not the shard fold: agg %+v, folded nodes=%d reads=%d writes=%d macs=%d max=%g",
			agg, nodes, reads, writes, macs, maxNS)
	}
	if err := e.VerifyNVM(); err != nil {
		t.Fatalf("persisted trees inconsistent after recovery: %v", err)
	}
	checkFinalState(t, "post-recovery", e, m)
}

// MonotoneCounters drives the conformance trace in two halves and checks
// that every touched line's encryption counter only ever grows, matching
// the cumulative write count at each checkpoint. Counter regression is the
// canonical replay-attack surface, so this is exact, per line.
func MonotoneCounters(t *testing.T, s sim.Scheme, channels int, iv trace.Interleave) {
	t.Helper()
	prof := ConformanceProfile()
	opt := ConformanceOptions(4000)
	ops := trace.Record(prof, opt.Seed, opt.Ops)
	half := len(ops) / 2

	e := sim.NewSharded(prof, s, opt, sim.ShardOptions{Channels: channels, Interleave: iv})
	if err := e.DriveStream(trace.NewReplay(prof.Name, ops[:half])); err != nil {
		t.Fatalf("first half: %v", err)
	}
	mid := make(map[uint64]uint64)
	for i := range ops[:half] {
		if ops[i].IsWrite {
			mid[ops[i].Addr]++
		}
	}
	for addr, writes := range mid {
		if got := e.DataCounter(addr); got != writes {
			t.Fatalf("mid-trace: line %#x counter %d, expected %d", addr, got, writes)
		}
	}
	if err := e.DriveStream(trace.NewReplay(prof.Name, ops[half:])); err != nil {
		t.Fatalf("second half: %v", err)
	}
	total := make(map[uint64]uint64, len(mid))
	for i := range ops {
		if ops[i].IsWrite {
			total[ops[i].Addr]++
		}
	}
	for addr, writes := range total {
		got := e.DataCounter(addr)
		if got != writes {
			t.Fatalf("final: line %#x counter %d, expected %d", addr, got, writes)
		}
		if got < mid[addr] {
			t.Fatalf("line %#x counter regressed: %d at half, %d at end", addr, mid[addr], got)
		}
	}
}
