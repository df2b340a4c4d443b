package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/trace"
)

// testHeader is a small run: every scheme resolves it identically, the
// metrics collector is attached, and the metadata cache is tight enough
// that snapshots capture real dirty state.
func testHeader(scheme string, channels, ops int) RunHeader {
	return RunHeader{
		Workload:       "conformance-snap",
		Scheme:         scheme,
		TotalOps:       ops,
		WarmupOps:      ops / 10,
		Seed:           42,
		MetaCacheBytes: 16 << 10,
		Channels:       channels,
		EpochOps:       256,
		HasMetrics:     true,
		Metrics:        metrics.Options{SampleEvery: 16, RingCap: 64},
	}
}

// faultHeader enables the seeded media-fault model so the captured state
// must include the device RNG stream and stuck-cell overlays.
func faultHeader(scheme string, channels, ops int) RunHeader {
	h := testHeader(scheme, channels, ops)
	h.Faults = nvmem.FaultConfig{
		Seed:             7,
		TransientPerRead: 1e-3,
		DoubleBitFrac:    0.25,
		StuckPerWrite:    1e-4,
	}
	return h
}

func init() {
	// The test workload is registered once so RunHeader.Resume can resolve
	// it by name in the "fresh process" role.
	trace.Register(trace.Profile{
		Name:           "conformance-snap",
		FootprintBytes: 128 << 10,
		WriteFrac:      0.6,
		GapMean:        12,
		Pattern:        trace.Zipf,
	})
}

// straightSingle runs the header's configuration uninterrupted on the
// single engine and returns the result plus its metrics JSON.
func straightSingle(t *testing.T, h RunHeader) (sim.Result, []byte) {
	t.Helper()
	prof, _ := trace.ByName(h.Workload)
	s, ok := sim.SchemeByName(h.Scheme)
	if !ok {
		t.Fatalf("unknown scheme %q", h.Scheme)
	}
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	if _, err := e.DriveN(trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops), -1); err != nil {
		t.Fatalf("straight drive: %v", err)
	}
	res := e.Result()
	return res, metricsJSON(t, res)
}

func metricsJSON(t *testing.T, res sim.Result) []byte {
	t.Helper()
	if res.Snapshot == nil {
		t.Fatalf("run produced no metrics snapshot")
	}
	var buf bytes.Buffer
	if err := res.Snapshot.EncodeJSON(&buf); err != nil {
		t.Fatalf("encode metrics: %v", err)
	}
	return buf.Bytes()
}

// checkpointSingle drives the run to the bound, round-trips the state
// through the wire format, resumes, drives to completion, and returns the
// resumed result.
func checkpointSingle(t *testing.T, h RunHeader, bound int) (sim.Result, []byte) {
	t.Helper()
	prof, _ := trace.ByName(h.Workload)
	s, _ := sim.SchemeByName(h.Scheme)
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	if _, err := e.DriveN(g, bound); err != nil {
		t.Fatalf("drive to bound %d: %v", bound, err)
	}
	st, err := CaptureSingle(h, g, e)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	r := resumeViaWire(t, st)
	if r.Single == nil {
		t.Fatalf("resumed engine is not single")
	}
	if got := r.Driven(); got != uint64(bound) {
		t.Fatalf("resumed at %d ops, captured at %d", got, bound)
	}
	if _, err := r.Single.DriveN(r.Gen, -1); err != nil {
		t.Fatalf("drive remainder: %v", err)
	}
	res := r.Single.Result()
	return res, metricsJSON(t, res)
}

// resumeViaWire serializes, deserializes, and resumes — the full
// cross-process path, minus the process boundary.
func resumeViaWire(t *testing.T, st *RunState) *Resumed {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	r, err := back.Resume()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return r
}

// compareResults asserts bit-exact equivalence: the comparable result
// fields and the serialized metrics JSON byte for byte.
func compareResults(t *testing.T, label string, want, got sim.Result, wantJSON, gotJSON []byte) {
	t.Helper()
	w, g := want, got
	w.Snapshot, g.Snapshot = nil, nil
	if !reflect.DeepEqual(w, g) {
		t.Errorf("%s: results diverge\nstraight %+v\nresumed  %+v", label, w, g)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("%s: metrics JSON diverges (%d vs %d bytes)", label, len(wantJSON), len(gotJSON))
	}
}

// TestRoundTripSingleAllSchemes checkpoints every scheme mid-run (before,
// at, and after the warm-up boundary) and requires the resumed run to be
// bit-identical to the uninterrupted one.
func TestRoundTripSingleAllSchemes(t *testing.T) {
	for _, s := range []string{"WB-GC", "WB-SC", "ASIT", "STAR", "Steins-GC", "Steins-SC", "SCUE-GC", "SCUE-SC"} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			h := testHeader(s, 1, 2000)
			want, wantJSON := straightSingle(t, h)
			for _, bound := range []int{1, h.WarmupOps, h.WarmupOps + 777, h.WarmupOps + h.TotalOps} {
				got, gotJSON := checkpointSingle(t, h, bound)
				compareResults(t, fmt.Sprintf("bound %d", bound), want, got, wantJSON, gotJSON)
			}
		})
	}
}

// TestRoundTripSingleFaultSeed repeats the round trip under an active
// media-fault seed: the device RNG stream, stuck-cell overlays and ECC
// counters must all survive the snapshot for the tail to replay bit-exact.
func TestRoundTripSingleFaultSeed(t *testing.T) {
	for _, s := range []string{"Steins-GC", "SCUE-SC", "STAR"} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			h := faultHeader(s, 1, 2000)
			want, wantJSON := straightSingle(t, h)
			got, gotJSON := checkpointSingle(t, h, h.WarmupOps+313)
			compareResults(t, "fault seed", want, got, wantJSON, gotJSON)
		})
	}
}

// shardedJSON encodes the sharded system snapshot.
func shardedJSON(t *testing.T, res sim.ShardedResult) []byte {
	t.Helper()
	if res.System == nil {
		t.Fatalf("sharded run produced no system snapshot")
	}
	var buf bytes.Buffer
	if err := res.System.EncodeJSON(&buf); err != nil {
		t.Fatalf("encode system snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripSharded checkpoints sharded runs (2 and 4 channels, with
// and without a fault seed) at an epoch barrier and requires bit-identical
// merged results and system metrics JSON.
func TestRoundTripSharded(t *testing.T) {
	for _, tc := range []struct {
		scheme   string
		channels int
		faults   bool
	}{
		{"Steins-GC", 2, false},
		{"Steins-SC", 4, false},
		{"ASIT", 2, true},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-%dch-faults=%v", tc.scheme, tc.channels, tc.faults), func(t *testing.T) {
			t.Parallel()
			h := testHeader(tc.scheme, tc.channels, 3000)
			if tc.faults {
				h = faultHeader(tc.scheme, tc.channels, 3000)
			}
			prof, _ := trace.ByName(h.Workload)
			s, _ := sim.SchemeByName(h.Scheme)
			opt, so := h.Options()

			straight := sim.NewSharded(prof, s, opt, so)
			if err := straight.DriveStream(trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)); err != nil {
				t.Fatalf("straight drive: %v", err)
			}
			want := straight.Result()
			wantJSON := shardedJSON(t, want)

			e := sim.NewSharded(prof, s, opt, so)
			g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
			bound := h.WarmupOps + 1000
			if _, err := e.DriveStreamN(g, bound); err != nil {
				t.Fatalf("drive to bound: %v", err)
			}
			st, err := CaptureSharded(h, g, e)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			r := resumeViaWire(t, st)
			if r.Sharded == nil {
				t.Fatalf("resumed engine is not sharded")
			}
			if _, err := r.Sharded.DriveStreamN(r.Gen, -1); err != nil {
				t.Fatalf("drive remainder: %v", err)
			}
			got := r.Sharded.Result()
			gotJSON := shardedJSON(t, got)
			compareResults(t, "merged", want.Merged, got.Merged, wantJSON, gotJSON)
			if len(want.Shards) != len(got.Shards) {
				t.Fatalf("shard count diverges: %d vs %d", len(want.Shards), len(got.Shards))
			}
			for k := range want.Shards {
				w, g := want.Shards[k], got.Shards[k]
				w.Snapshot, g.Snapshot = nil, nil
				if !reflect.DeepEqual(w, g) {
					t.Errorf("channel %d diverges\nstraight %+v\nresumed  %+v", k, w, g)
				}
			}
		})
	}
}

// TestRecoveryAfterResume crashes and recovers the resumed system and the
// straight system and requires identical recovery reports — the restored
// trees, dirty sets and device state must be equivalent, not just the
// metrics.
func TestRecoveryAfterResume(t *testing.T) {
	for _, scheme := range []string{"Steins-GC", "ASIT", "STAR", "SCUE-GC"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			h := testHeader(scheme, 1, 1500)
			prof, _ := trace.ByName(h.Workload)
			s, _ := sim.SchemeByName(h.Scheme)
			opt, _ := h.Options()

			straight := sim.NewSingle(prof, s, opt)
			if _, err := straight.DriveN(trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops), -1); err != nil {
				t.Fatalf("straight drive: %v", err)
			}

			e := sim.NewSingle(prof, s, opt)
			g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
			if _, err := e.DriveN(g, h.WarmupOps+900); err != nil {
				t.Fatalf("drive to bound: %v", err)
			}
			st, err := CaptureSingle(h, g, e)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			r := resumeViaWire(t, st)
			if _, err := r.Single.DriveN(r.Gen, -1); err != nil {
				t.Fatalf("drive remainder: %v", err)
			}

			for _, c := range []*sim.Single{straight, r.Single} {
				c.Controller().ForceAllDirty()
				c.Controller().Crash()
			}
			wantRep, wantErr := straight.Controller().Recover()
			gotRep, gotErr := r.Single.Controller().Recover()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("recovery errors diverge: straight %v, resumed %v", wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Errorf("recovery reports diverge\nstraight %+v\nresumed  %+v", wantRep, gotRep)
			}
		})
	}
}

// TestCaptureMidEvictionFails documents the retired-op-boundary contract:
// State is only legal between operations, and capturing a crashed
// controller still works (crash state is state).
func TestCaptureNotSupportedCases(t *testing.T) {
	h := testHeader("Steins-GC", 1, 100)
	prof, _ := trace.ByName(h.Workload)
	s, _ := sim.SchemeByName(h.Scheme)
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	if _, err := e.DriveN(g, 50); err != nil {
		t.Fatalf("drive: %v", err)
	}
	if _, err := CaptureSingle(h, g, e); err != nil {
		t.Fatalf("capture at boundary should succeed: %v", err)
	}
}

// corrupt flips one bit near the middle of the payload.
func corrupt(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[headerLen+len(out[headerLen:])/2] ^= 0x10
	return out
}

// TestReadRejectsMalformed is the negative table: truncated, bit-flipped
// and wrong-version snapshots must return errors wrapping the matching
// sentinel — and must never panic.
func TestReadRejectsMalformed(t *testing.T) {
	h := testHeader("Steins-GC", 1, 200)
	prof, _ := trace.ByName(h.Workload)
	s, _ := sim.SchemeByName(h.Scheme)
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	if _, err := e.DriveN(g, 120); err != nil {
		t.Fatalf("drive: %v", err)
	}
	st, err := CaptureSingle(h, g, e)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatalf("write: %v", err)
	}
	good := buf.Bytes()

	wrongVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(wrongVersion[8:], Version+1)
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	lyingLength := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lyingLength[16:], 1<<40)
	wrongKind := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(wrongKind[12:], KindCampaign)

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:headerLen-1], ErrTruncated},
		{"truncated payload", good[:headerLen+7], ErrTruncated},
		{"declared length exceeds file", lyingLength, ErrTruncated},
		{"bad magic", badMagic, ErrBadMagic},
		{"wrong version", wrongVersion, ErrVersion},
		{"wrong payload kind", wrongKind, ErrCorrupt},
		{"bit flip in payload", corrupt(good), ErrChecksum},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// A bytes.Reader reports its length, so the payload is read at
			// its exact size; the plain reader takes the bounded path.
			for _, r := range []io.Reader{bytes.NewReader(tc.data), struct{ io.Reader }{bytes.NewReader(tc.data)}} {
				st, err := Read(r)
				if st != nil || err == nil {
					t.Fatalf("Read(%T) accepted malformed input (err=%v)", r, err)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("Read(%T): error %v does not wrap %v", r, err, tc.want)
				}
			}
		})
	}
}

// TestResumeRejectsInconsistent covers payloads that pass the envelope but
// describe no loadable run: each case is a CRC-valid file whose Read or
// Resume must fail with ErrCorrupt, never panic.
func TestResumeRejectsInconsistent(t *testing.T) {
	// mutated captures a small Steins-GC run (data lines, wear and tags all
	// populated) and lets fn break one of its columns.
	mutated := func(fn func(c *memctrl.ControllerState)) RunState {
		h := testHeader("Steins-GC", 1, 100)
		prof, _ := trace.ByName(h.Workload)
		s, _ := sim.SchemeByName(h.Scheme)
		opt, _ := h.Options()
		e := sim.NewSingle(prof, s, opt)
		g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
		if _, err := e.DriveN(g, 25); err != nil {
			t.Fatalf("drive: %v", err)
		}
		st, err := CaptureSingle(h, g, e)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		c := st.Single.Ctrl
		if len(c.Device.LineAddrs) == 0 || len(c.Device.WearAddrs) == 0 || len(c.TagAddrs) == 0 {
			t.Fatalf("fixture run left a table empty")
		}
		fn(c)
		return *st
	}
	wire := func(st RunState) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, &st); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.Bytes()
	}
	// preColumnar is a Steins-GC run checkpointed by the encoder that
	// predates the columnar tables (lines, wear and tags as slices of
	// structs): same envelope version, different payload layout.
	preColumnar, err := os.ReadFile("testdata/pre-columnar-run.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		why  string // a fragment the error must name
	}{
		{"no engine", wire(RunState{Header: testHeader("Steins-GC", 1, 100)}), "0 engines"},
		{"unknown workload", wire(RunState{Header: func() RunHeader {
			h := testHeader("Steins-GC", 1, 100)
			h.Workload = "no-such-workload"
			return h
		}(), Single: &sim.SingleState{}}), "unknown workload"},
		{"unknown scheme", wire(RunState{Header: func() RunHeader {
			h := testHeader("Steins-GC", 1, 100)
			h.Scheme = "no-such-scheme"
			return h
		}(), Single: &sim.SingleState{}}), "unknown scheme"},
		{"line data short of its addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Device.LineData = c.Device.LineData[:len(c.Device.LineData)-1]
		})), "data bytes"},
		{"line data past its addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Device.LineAddrs = c.Device.LineAddrs[1:]
		})), "data bytes"},
		{"wear counts short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Device.WearCounts = c.Device.WearCounts[1:]
		})), "wear counts"},
		{"tag MACs short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.TagMACs = c.TagMACs[1:]
		})), "tag addresses"},
		{"tag hints short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.TagHints = c.TagHints[1:]
		})), "tag addresses"},
		{"tag written flags short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.TagWritten = c.TagWritten[1:]
		})), "tag addresses"},
		{"tag addresses past their values", wire(mutated(func(c *memctrl.ControllerState) {
			c.TagAddrs = append(c.TagAddrs, c.TagAddrs[len(c.TagAddrs)-1]+nvmem.LineSize)
		})), "tag addresses"},
		{"unknown controller layout", wire(mutated(func(c *memctrl.ControllerState) {
			c.Layout = memctrl.StateLayout + 1
		})), "layout 2"},
		{"pre-columnar layout", preColumnar, "layout 0"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			st, err := Read(bytes.NewReader(tc.data))
			if err == nil {
				var r *Resumed
				if r, err = st.Resume(); r != nil {
					t.Fatalf("Resume accepted an inconsistent payload")
				}
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("err = %v, want ErrCorrupt naming %q", err, tc.why)
			}
		})
	}
}

// TestSaveLoadFile exercises the file round trip.
func TestSaveLoadFile(t *testing.T) {
	h := testHeader("ASIT", 1, 300)
	prof, _ := trace.ByName(h.Workload)
	s, _ := sim.SchemeByName(h.Scheme)
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	if _, err := e.DriveN(g, 200); err != nil {
		t.Fatalf("drive: %v", err)
	}
	st, err := CaptureSingle(h, g, e)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	path := t.TempDir() + "/run.snap"
	if err := SaveFile(path, st); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if back.Header != st.Header {
		t.Fatalf("header diverges after file round trip:\nsaved  %+v\nloaded %+v", st.Header, back.Header)
	}
	if _, err := back.Resume(); err != nil {
		t.Fatalf("resume from file: %v", err)
	}
}

// TestSaveFileAtomicReplace pins the atomic-replace contract of
// SaveEnvelope, through each saver of this package (runs and servers; the
// campaign saver has its own test): overwriting an existing checkpoint goes
// through a temp file + rename, so the directory never holds a
// partially-written file under the final name, no temp droppings survive a
// successful save, the file keeps mode 0644, and a save into a missing
// directory fails with a structured error while leaving the previous
// checkpoint untouched.
func TestSaveFileAtomicReplace(t *testing.T) {
	h := testHeader("Triad-GC", 1, 300)
	prof, _ := trace.ByName(h.Workload)
	s, _ := sim.SchemeByName(h.Scheme)
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	// Each saver writes its gen-th distinct checkpoint to path and returns
	// the bytes the file must then hold.
	for _, sv := range []struct {
		name string
		save func(path string, gen int) ([]byte, error)
	}{
		{"run", func(path string, gen int) ([]byte, error) {
			if _, err := e.DriveN(g, 100); err != nil {
				t.Fatalf("drive: %v", err)
			}
			st, err := CaptureSingle(h, g, e)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			var want bytes.Buffer
			if err := Write(&want, st); err != nil {
				t.Fatal(err)
			}
			return want.Bytes(), SaveFile(path, st)
		}},
		{"server", func(path string, gen int) ([]byte, error) {
			st := &ServerState{Tenants: []TenantState{{Name: "t", Scheme: "Steins-SC", AppliedSeq: uint64(gen)}}}
			want, err := EncodeServer(st)
			if err != nil {
				t.Fatal(err)
			}
			return want, SaveServerFile(path, st)
		}},
	} {
		t.Run(sv.name, func(t *testing.T) {
			dir := t.TempDir()
			path := dir + "/state.snap"
			if _, err := sv.save(path, 1); err != nil {
				t.Fatalf("first save: %v", err)
			}
			want, err := sv.save(path, 2)
			if err != nil {
				t.Fatalf("overwrite save: %v", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "state.snap" {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("directory holds %v after save, want only state.snap (no temp droppings)", names)
			}
			if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
				t.Fatalf("stat = (%v, %v), want mode 0644", info, err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, want) {
				t.Fatal("overwritten file does not hold the newer checkpoint's bytes")
			}
			if _, err := sv.save(dir+"/missing/state.snap", 3); err == nil {
				t.Fatal("save into a missing directory succeeded")
			} else if !strings.Contains(err.Error(), "snapshot:") {
				t.Fatalf("missing-directory error %q lacks the snapshot prefix", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed save modified the existing checkpoint")
			}
		})
	}
	if _, err := LoadFile(t.TempDir() + "/absent.snap"); err == nil || !strings.Contains(err.Error(), "snapshot:") {
		t.Fatalf("LoadFile of a missing file = %v, want a snapshot error", err)
	}
}

// TestDeterministicBytes requires that capturing the same state twice
// yields byte-identical files — the sorted-slice flattening has no map
// iteration order leaking through.
func TestDeterministicBytes(t *testing.T) {
	h := faultHeader("Steins-SC", 1, 800)
	prof, _ := trace.ByName(h.Workload)
	s, _ := sim.SchemeByName(h.Scheme)
	opt, _ := h.Options()
	e := sim.NewSingle(prof, s, opt)
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	if _, err := e.DriveN(g, 500); err != nil {
		t.Fatalf("drive: %v", err)
	}
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		st, err := CaptureSingle(h, g, e)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		if err := Write(w, st); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two captures of the same state produced different bytes (%d vs %d)", a.Len(), b.Len())
	}
}
