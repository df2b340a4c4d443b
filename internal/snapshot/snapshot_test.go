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

	"steins/internal/arena"
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

// newEngine builds the engine and generator the header describes, with
// the generator at the start of the trace.
func newEngine(t testing.TB, h RunHeader) (*sim.Sharded, *trace.Generator) {
	t.Helper()
	prof, ok := trace.ByName(h.Workload)
	if !ok {
		t.Fatalf("unknown workload %q", h.Workload)
	}
	s, ok := sim.SchemeByName(h.Scheme)
	if !ok {
		t.Fatalf("unknown scheme %q", h.Scheme)
	}
	opt, so := h.Options()
	return sim.NewSharded(prof, s, opt, so), trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
}

// driven builds the header's engine and drives the first n ops.
func driven(t testing.TB, h RunHeader, n int) (*sim.Sharded, *trace.Generator) {
	t.Helper()
	e, g := newEngine(t, h)
	if _, err := e.DriveStreamN(g, n); err != nil {
		t.Fatalf("drive to %d: %v", n, err)
	}
	return e, g
}

// straightSingle runs the header's one-channel configuration
// uninterrupted and returns the result plus its metrics JSON.
func straightSingle(t *testing.T, h RunHeader) (sim.Result, []byte) {
	t.Helper()
	e, _ := driven(t, h, -1)
	res := e.Result().Merged
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

// checkpointSingle drives the one-channel run to the bound, round-trips
// the state through the wire format, resumes, drives to completion, and
// returns the resumed result.
func checkpointSingle(t *testing.T, h RunHeader, bound int) (sim.Result, []byte) {
	t.Helper()
	st := capture(t, h, bound)
	r := resumeViaWire(t, st)
	if got := r.Sharded.Driven(); got != uint64(bound) {
		t.Fatalf("resumed at %d ops, captured at %d", got, bound)
	}
	if _, err := r.Sharded.DriveStreamN(r.Gen, -1); err != nil {
		t.Fatalf("drive remainder: %v", err)
	}
	res := r.Sharded.Result().Merged
	return res, metricsJSON(t, res)
}

// capture drives the header's run to the bound and captures it.
func capture(t testing.TB, h RunHeader, bound int) *RunState {
	t.Helper()
	e, g := driven(t, h, bound)
	st, err := CaptureSharded(h, g, e)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return st
}

// resumeViaWire serializes, deserializes, and resumes — the full
// cross-process path, minus the process boundary.
func resumeViaWire(t *testing.T, st *RunState) *Resumed {
	t.Helper()
	wire, err := Encode(st)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode[RunState](bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("decode: %v", err)
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
			straight, _ := driven(t, h, -1)
			r := resumeViaWire(t, capture(t, h, h.WarmupOps+900))
			if _, err := r.Sharded.DriveStreamN(r.Gen, -1); err != nil {
				t.Fatalf("drive remainder: %v", err)
			}

			for _, e := range []*sim.Sharded{straight, r.Sharded} {
				e.ForceAllDirty()
				e.Crash()
			}
			_, wantRep, wantErr := straight.Recover()
			_, gotRep, gotErr := r.Sharded.Recover()
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
	e, g := driven(t, h, 50)
	if _, err := CaptureSharded(h, g, e); err != nil {
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
	good, err := Encode(capture(t, testHeader("Steins-GC", 1, 200), 120))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

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
				st, err := Decode[RunState](r)
				if st != nil || err == nil {
					t.Fatalf("Decode(%T) accepted malformed input (err=%v)", r, err)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("Decode(%T): error %v does not wrap %v", r, err, tc.want)
				}
			}
		})
	}
}

// TestResumeRejectsInconsistent covers payloads that pass the envelope but
// describe no loadable run: each case is a CRC-valid file whose Decode or
// Resume must fail with ErrCorrupt, never panic.
func TestResumeRejectsInconsistent(t *testing.T) {
	// mutated captures a small Steins-GC run (data lines, wear and tags all
	// populated) and lets fn break one of its columns.
	mutated := func(fn func(c *memctrl.ControllerState)) RunState {
		st := capture(t, testHeader("Steins-GC", 1, 100), 25)
		c := st.Sharded.Ctrls[0]
		if c.Device.Lines.Len() == 0 || c.Device.Wear.Len() == 0 || c.Tags.Len() == 0 {
			t.Fatalf("fixture run left a table empty")
		}
		fn(c)
		return *st
	}
	wire := func(st RunState) []byte {
		b, err := Encode(&st)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b
	}
	header := func(fn func(h *RunHeader)) []byte {
		st := capture(t, testHeader("Steins-GC", 1, 100), 25)
		fn(&st.Header)
		return wire(*st)
	}
	for _, tc := range []struct {
		name string
		data []byte
		why  string // a fragment the error must name
	}{
		{"no engine", wire(RunState{Header: testHeader("Steins-GC", 1, 100)}), "state carries no engine"},
		{"data region below the footprint", header(func(h *RunHeader) { h.DataBytes = 64 }),
			"data region 64 smaller than conformance-snap footprint"},
		// A cache past memctrl.MaxMetaCacheBytes would be allocated
		// before the state it is checked against.
		{"metadata cache above the ceiling", header(func(h *RunHeader) { h.MetaCacheBytes = 1 << 50 }),
			"metadata cache of 1125899906842624 bytes, above the"},
		{"channel count disagrees with the state", header(func(h *RunHeader) { h.Channels = 2 }),
			"state has 1 channels, header declares 2"},
		{"negative metrics ring capacity", header(func(h *RunHeader) { h.Metrics.RingCap = -1 }),
			"metrics ring capacity -1"},
		{"huge metrics ring capacity", header(func(h *RunHeader) { h.Metrics.RingCap = 1 << 60 }),
			"collector options"},
		// The cache is built at the two-set floor and cannot hold the
		// captured 16 KiB cache state.
		{"metadata cache smaller than the captured state", header(func(h *RunHeader) { h.MetaCacheBytes = 100 }),
			"outside 2 sets x 8 ways"},
		{"unknown workload", wire(RunState{Header: func() RunHeader {
			h := testHeader("Steins-GC", 1, 100)
			h.Workload = "no-such-workload"
			return h
		}(), Sharded: &sim.ShardedState{}}), "unknown workload"},
		{"unknown scheme", wire(RunState{Header: func() RunHeader {
			h := testHeader("Steins-GC", 1, 100)
			h.Scheme = "no-such-scheme"
			return h
		}(), Sharded: &sim.ShardedState{}}), "unknown scheme"},
		{"line data short of its addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Device.Lines = cutBlocks(c.Device.Lines, 1)
		})), "nvmem: line table: 98303 bytes of blocks for 3 chunks"},
		{"line data past its addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Device.Lines = tailChunks(c.Device.Lines)
		})), "nvmem: line table: 98304 bytes of blocks for 2 chunks"},
		{"wear counts short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Device.Wear = tailChunks(c.Device.Wear)
		})), "nvmem: wear table: 12288 bytes of blocks for 2 chunks"},
		// A tag slot is its MAC, its hint and its written flag, 17 bytes:
		// each cut takes the named field and what follows it off the last
		// slot.
		{"tag MACs short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Tags = cutBlocks(c.Tags, 17)
		})), "memctrl: tag table: 26095 bytes of blocks for 3 chunks"},
		{"tag hints short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Tags = cutBlocks(c.Tags, 9)
		})), "memctrl: tag table: 26103 bytes of blocks for 3 chunks"},
		{"tag written flags short of their addresses", wire(mutated(func(c *memctrl.ControllerState) {
			c.Tags = cutBlocks(c.Tags, 1)
		})), "memctrl: tag table: 26111 bytes of blocks for 3 chunks"},
		{"tag addresses past their values", wire(mutated(func(c *memctrl.ControllerState) {
			idx := binary.LittleEndian.AppendUint64(append([]byte(nil), c.Tags.Columns()[0]...), c.Tags.Chunk(c.Tags.Len()-1)+1)
			c.Tags = tableOf(idx, c.Tags.Columns()[1])
		})), "memctrl: tag table: 26112 bytes of blocks for 4 chunks"},
		{"unknown controller layout", wire(mutated(func(c *memctrl.ControllerState) {
			c.Layout = memctrl.StateLayout + 1
		})), fmt.Sprintf("layout %d", memctrl.StateLayout+1)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			st, err := Decode[RunState](bytes.NewReader(tc.data))
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

// TestRunLayoutFixtures pins that run checkpoints written before runs took
// the sectioned payload are refused as ErrCorrupt by the payload layout
// word, through both loaders: each was one gob RunState, whose first eight
// bytes are gob, not the layout. pre-columnar-run.snap is a Steins-GC run
// from before the columnar tables (lines, wear and tags as slices of
// structs); layout1-run.snap the same kind of run in layout 1, whose 64-bit
// columns were gob []uint64 slices; layout2-run.snap a Steins-SC run in
// layout 2, with a []bool of tag written flags and reflected cached nodes;
// single-engine-run.snap a Steins-SC run of the retired single-controller
// engine in layout 3; keep-cache-header.snap a layout-3 Steins-GC run whose
// header set the retired keep-cache-per-channel flag; first-touch-hash-run.snap
// a two-channel hash-interleave Steins-GC run in layout 3, when the hash mode
// handed out local lines in first-touch order; layout5-gob-run.snap a
// Steins-SC pers_queue run (steinssim -checkpoint) in the last gob form,
// layout 5 of the controller state; and layout5-run.snap a Steins-SC
// pers_queue run in the sectioned payload of layout 5, whose layout word
// is 5: it listed the data tags in four columns.
func TestRunLayoutFixtures(t *testing.T) {
	for _, tc := range []struct{ name, file string }{
		{"pre-columnar layout", "pre-columnar-run.snap"},
		{"layout 1", "layout1-run.snap"},
		{"layout 2", "layout2-run.snap"},
		{"single-controller engine", "single-engine-run.snap"},
		{"retired keep-cache header", "keep-cache-header.snap"},
		{"first-touch hash router", "first-touch-hash-run.snap"},
		{"layout 5 gob", "layout5-gob-run.snap"},
		{"layout 5", "layout5-run.snap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := os.ReadFile("testdata/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			const why = ", want 6 (checkpoints of older layouts are refused"
			back, err := loadBoth[RunState](t, env)
			if back != nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "payload layout 0x") ||
				!strings.Contains(err.Error(), why) || tc.file == "layout5-run.snap" && !strings.Contains(err.Error(), "payload layout 0x5,") {
				t.Fatalf("%s: %v, want ErrCorrupt naming the payload layout", tc.file, err)
			}
		})
	}
}

// tableOf is arena.TableFrom for columns known to be well formed.
func tableOf(chunks, blocks []byte) arena.Table {
	t, err := arena.TableFrom(chunks, blocks)
	if err != nil {
		panic(err)
	}
	return t
}

// tailChunks drops a table's first chunk index, keeping its blocks.
func tailChunks(t arena.Table) arena.Table { return tableOf(t.Columns()[0][8:], t.Columns()[1]) }

// cutBlocks drops the last n bytes of a table's blocks.
func cutBlocks(t arena.Table, n int) arena.Table {
	b := t.Columns()[1]
	return tableOf(t.Columns()[0], b[:len(b)-n])
}

// TestSaveLoadFile exercises the file round trip.
func TestSaveLoadFile(t *testing.T) {
	st := capture(t, testHeader("ASIT", 1, 300), 200)
	path := t.TempDir() + "/run.snap"
	if err := SaveFile(path, st); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadFile[RunState](path)
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
// SaveEnvelope, through SaveFile for each kind of this package (runs and
// servers; the campaign saver has its own test): overwriting an existing checkpoint goes
// through a temp file + rename, so the directory never holds a
// partially-written file under the final name, no temp droppings survive a
// successful save, the file keeps mode 0644, and a save into a missing
// directory fails with a structured error while leaving the previous
// checkpoint untouched.
func TestSaveFileAtomicReplace(t *testing.T) {
	h := testHeader("Triad-GC", 1, 300)
	e, g := newEngine(t, h)
	// Each saver writes its gen-th distinct checkpoint to path and returns
	// the bytes the file must then hold.
	for _, sv := range []struct {
		name string
		save func(path string, gen int) ([]byte, error)
	}{
		{"run", func(path string, gen int) ([]byte, error) {
			if _, err := e.DriveStreamN(g, 100); err != nil {
				t.Fatalf("drive: %v", err)
			}
			st, err := CaptureSharded(h, g, e)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			want, err := Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			return want, SaveFile(path, st)
		}},
		{"server", func(path string, gen int) ([]byte, error) {
			st := &ServerState{Tenants: []TenantState{{Name: "t", Scheme: "Steins-SC", AppliedSeq: uint64(gen)}}}
			want, err := Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			return want, SaveFile(path, st)
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
	if _, err := LoadFile[RunState](t.TempDir() + "/absent.snap"); err == nil || !strings.Contains(err.Error(), "snapshot:") {
		t.Fatalf("LoadFile of a missing file = %v, want a snapshot error", err)
	}
}

// TestDeterministicBytes requires that capturing the same state twice
// yields byte-identical files — the sorted-slice flattening has no map
// iteration order leaking through.
func TestDeterministicBytes(t *testing.T) {
	h := faultHeader("Steins-SC", 1, 800)
	e, g := driven(t, h, 500)
	var wire [2][]byte
	for i := range wire {
		st, err := CaptureSharded(h, g, e)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		if wire[i], err = Encode(st); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if !bytes.Equal(wire[0], wire[1]) {
		t.Fatalf("two captures of the same state produced different bytes (%d vs %d)", len(wire[0]), len(wire[1]))
	}
}
