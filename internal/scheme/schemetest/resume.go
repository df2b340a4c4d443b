package schemetest

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/snapshot"
	"steins/internal/trace"
)

// This file is the resume-equivalence differential harness: the same run
// is checkpointed every k retired ops, each checkpoint serialized through
// the snapshot wire format, reloaded into a fresh system, and driven over
// the trace remainder. The invariant is bit-exact: the resumed run's
// comparable result fields and its serialized metrics JSON must equal the
// straight run's byte for byte, and a crash after the run must produce an
// identical recovery report.

// resumeProfile is the dedicated trace: smaller than the conformance
// footprint so the repeated remainder-replays stay fast, registered by
// name so snapshot resume can rebuild it like a fresh process would.
func resumeProfile() trace.Profile {
	return trace.Profile{
		Name:           "resume-conformance",
		FootprintBytes: 128 << 10,
		WriteFrac:      0.6,
		GapMean:        12,
		Pattern:        trace.Zipf,
		ZipfS:          0.9,
	}
}

func init() {
	trace.Register(resumeProfile())
}

// resumeHeader describes one resume-equivalence run, including a metrics
// collector with a small ring so sample rotation crosses the checkpoint.
func resumeHeader(tc ResumeCase, ops int, faults nvmem.FaultConfig) snapshot.RunHeader {
	return snapshot.RunHeader{
		Workload:       resumeProfile().Name,
		Scheme:         tc.Scheme.Name,
		TotalOps:       ops,
		WarmupOps:      ops / 8,
		Seed:           77,
		MetaCacheBytes: 16 << 10,
		Channels:       tc.Channels,
		Interleave:     tc.Interleave,
		EpochOps:       128,
		Faults:         faults,
		HasMetrics:     true,
		Metrics:        metrics.Options{SampleEvery: 32, RingCap: 32},
	}
}

// resumeRun couples the engine with its generator behind the handful of
// operations the harness sweeps.
type resumeRun struct {
	h     snapshot.RunHeader
	gen   *trace.Generator
	shard *sim.Sharded
}

func newResumeRun(t *testing.T, h snapshot.RunHeader) *resumeRun {
	t.Helper()
	prof, ok := trace.ByName(h.Workload)
	if !ok {
		t.Fatalf("workload %q not registered", h.Workload)
	}
	s, ok := sim.SchemeByName(h.Scheme)
	if !ok {
		t.Fatalf("unknown scheme %q", h.Scheme)
	}
	opt, so := h.Options()
	return &resumeRun{h: h, gen: trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops),
		shard: sim.NewSharded(prof, s, opt, so)}
}

// drive advances up to n ops (n < 0: to exhaustion) and returns how many
// were consumed.
func (r *resumeRun) drive(t *testing.T, n int) int {
	t.Helper()
	done, err := r.shard.DriveStreamN(r.gen, n)
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	return done
}

// capture serializes the run through the wire format and reloads it into
// a completely fresh system.
func (r *resumeRun) capture(t *testing.T) *resumeRun {
	t.Helper()
	st, err := snapshot.CaptureSharded(r.h, r.gen, r.shard)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	wire, err := snapshot.Encode(st)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := snapshot.Decode[snapshot.RunState](bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	res, err := back.Resume()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return &resumeRun{h: r.h, gen: res.Gen, shard: res.Sharded}
}

// fingerprint reduces a finished run to the comparison payload: the
// comparable result fields and the deterministic metrics JSON.
type fingerprint struct {
	merged sim.Result
	shards []sim.Result
	json   []byte
}

func (r *resumeRun) fingerprint(t *testing.T) fingerprint {
	t.Helper()
	sres := r.shard.Result()
	fp := fingerprint{merged: sres.Merged, shards: sres.Shards}
	if fp.merged.Snapshot == nil || sres.System == nil {
		t.Fatalf("no metrics snapshot collected")
	}
	// The merged snapshot is the channel's own at one channel, and the
	// system export carries every channel's; pin both.
	var buf bytes.Buffer
	if err := fp.merged.Snapshot.EncodeJSON(&buf); err != nil {
		t.Fatalf("encode metrics: %v", err)
	}
	if err := sres.System.EncodeJSON(&buf); err != nil {
		t.Fatalf("encode system metrics: %v", err)
	}
	fp.json = buf.Bytes()
	fp.merged.Snapshot = nil
	for i := range fp.shards {
		fp.shards[i].Snapshot = nil
	}
	return fp
}

// recoveryReports crashes the run with every cached node forced dirty and
// returns the per-channel recovery reports; ok is false for schemes with
// no recovery path.
func (r *resumeRun) recoveryReports(t *testing.T) ([]memctrl.RecoveryReport, bool) {
	t.Helper()
	r.shard.ForceAllDirty()
	r.shard.Crash()
	reports, _, err := r.shard.Recover()
	if errors.Is(err, memctrl.ErrNoRecovery) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return reports, true
}

// DiffResume is the suite body: checkpoint the run every k retired ops,
// reload each checkpoint into a fresh system, drive the remainder, and
// demand a bit-identical fingerprint — then crash both the straight and
// the last resumed run and demand identical recovery reports.
func DiffResume(t *testing.T, tc ResumeCase, faults nvmem.FaultConfig) {
	t.Helper()
	const ops, every = 1600, 500
	h := resumeHeader(tc, ops, faults)

	straight := newResumeRun(t, h)
	straight.drive(t, -1)
	want := straight.fingerprint(t)

	var lastResumed *resumeRun
	walker := newResumeRun(t, h)
	for bound := every; ; bound += every {
		if walker.drive(t, every) == 0 {
			break
		}
		resumed := walker.capture(t)
		remainder := resumed.capture(t) // double round trip: resume of a resume
		remainder.drive(t, -1)
		got := remainder.fingerprint(t)
		if !reflect.DeepEqual(want.merged, got.merged) || !reflect.DeepEqual(want.shards, got.shards) {
			t.Fatalf("checkpoint at op %d: resumed results diverge\nstraight %+v\nresumed  %+v",
				bound, want.merged, got.merged)
		}
		if !bytes.Equal(want.json, got.json) {
			t.Fatalf("checkpoint at op %d: metrics JSON diverges (%d vs %d bytes)",
				bound, len(want.json), len(got.json))
		}
		// Keep walking the original run from the resumed copy, so later
		// checkpoints sit on top of earlier restores.
		walker = resumed
		lastResumed = remainder
	}
	if lastResumed == nil {
		t.Fatalf("trace shorter than one checkpoint interval")
	}

	wantReps, ok := straight.recoveryReports(t)
	if !ok {
		return // write-back baseline: no recovery path to compare
	}
	gotReps, _ := lastResumed.recoveryReports(t)
	if !reflect.DeepEqual(wantReps, gotReps) {
		t.Fatalf("recovery reports diverge\nstraight %+v\nresumed  %+v", wantReps, gotReps)
	}
}

// ResumeCase is one entry of the resume-equivalence sweep.
type ResumeCase struct {
	Scheme     sim.Scheme
	Channels   int
	Interleave trace.Interleave
}

// Name labels the case: scheme and channel count, suffixed with the
// interleave when it is not line.
func (tc ResumeCase) Name() string {
	name := fmt.Sprintf("%s/%dch", tc.Scheme.Name, tc.Channels)
	if tc.Interleave != trace.InterleaveLine {
		name += "-" + tc.Interleave.String()
	}
	return name
}

// ResumeCases enumerates the sweep: every scheme at 1, 2 and 4 channels
// under line interleave, and at 2 and 4 channels under hash, whose
// routing the splitter state must not need to carry.
func ResumeCases() []ResumeCase {
	var cases []ResumeCase
	for _, s := range sim.Schemes() {
		for _, ch := range []int{1, 2, 4} {
			cases = append(cases, ResumeCase{s, ch, trace.InterleaveLine})
		}
		for _, ch := range []int{2, 4} {
			cases = append(cases, ResumeCase{s, ch, trace.InterleaveHash})
		}
	}
	return cases
}
