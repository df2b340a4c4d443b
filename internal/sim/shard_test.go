package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/trace"
)

func shardProfile() trace.Profile {
	return trace.Profile{
		Name:           "shard-uniform",
		FootprintBytes: 256 << 10,
		WriteFrac:      0.5,
		GapMean:        10,
		Pattern:        trace.Uniform,
	}
}

func shardOpt() Options {
	return Options{Ops: 4000, Seed: 7, MetaCacheBytes: 16 << 10}
}

// referenceRun is the bare-controller replay the engine reduces to at one
// channel: one memctrl.Controller sized to the whole data region, every op
// at its global address and gap, op i writing Payload(addr, i), and the
// statistics reset once, when the warm-up ends.
func referenceRun(t *testing.T, prof trace.Profile, s Scheme, opt Options) Result {
	t.Helper()
	dataBytes := opt.DataBytes
	if dataBytes == 0 {
		dataBytes = prof.FootprintBytes * 2
	}
	cfg := memctrl.DefaultConfig(dataBytes, s.Split)
	if opt.MetaCacheBytes != 0 {
		cfg.MetaCacheBytes = opt.MetaCacheBytes
	}
	if opt.Configure != nil {
		opt.Configure(&cfg)
	}
	c := memctrl.New(cfg, s.Factory)
	if opt.Metrics != nil {
		c.SetMetrics(metrics.NewCollector(*opt.Metrics))
	}
	src := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	for i := 0; ; i++ {
		op, ok := src.Next()
		if !ok {
			break
		}
		var err error
		if op.IsWrite {
			err = c.WriteData(op.Gap, op.Addr, Payload(op.Addr, i))
		} else {
			_, err = c.ReadData(op.Gap, op.Addr)
		}
		if err != nil {
			t.Fatalf("reference %s op %d: %v", s.Name, i, err)
		}
		if i+1 == opt.WarmupOps {
			c.ResetStats()
		}
	}
	return collect(c, prof, s, opt.Ops)
}

// TestRunShardedOneChannelMatchesRun pins the reduction property: one
// channel is the bare controller under every interleave mode — identical
// Result, field for field, and byte-identical metrics JSON (series and
// per-op phase histograms included) for every scheme.
func TestRunShardedOneChannelMatchesRun(t *testing.T) {
	prof, opt := shardProfile(), shardOpt()
	opt.Ops = 2000
	opt.WarmupOps = 500 // exercise the epoch-aligned warmup reset
	mo := metrics.DefaultOptions()
	opt.Metrics = &mo
	encode := func(r Result) []byte {
		var buf bytes.Buffer
		if err := r.Snapshot.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range []Scheme{WBGC, WBSC, ASIT, STAR, SteinsGC, SteinsSC, SCUEGC, SCUESC, PipeSITGC, PipeSITSC, TriadGC, TriadSC} {
		ref := referenceRun(t, prof, s, opt)
		refJSON := encode(ref)
		for _, iv := range []trace.Interleave{trace.InterleaveLine, trace.InterleavePage, trace.InterleaveHash} {
			res, err := RunSharded(prof, s, opt, ShardOptions{Channels: 1, Interleave: iv, EpochOps: 300})
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, iv, err)
			}
			if len(res.Shards) != 1 {
				t.Fatalf("%s/%s: expected 1 shard result, got %d", s.Name, iv, len(res.Shards))
			}
			if !reflect.DeepEqual(ref, res.Merged) {
				t.Fatalf("%s/%s: 1-channel result diverges from the bare controller:\nref    %+v\nshard  %+v",
					s.Name, iv, ref, res.Merged)
			}
			if got := encode(res.Merged); !bytes.Equal(refJSON, got) {
				t.Fatalf("%s/%s: 1-channel metrics JSON diverges from the bare controller (%d vs %d bytes)",
					s.Name, iv, len(refJSON), len(got))
			}
		}
	}
}

// TestRunShardedDeterministicAcrossWorkers is the seeded-RNG determinism
// guard (also run under -cpu 1,2,8 in make check): identical
// ShardedResults and byte-identical metrics JSON whatever GOMAXPROCS the
// channel goroutines are scheduled on.
func TestRunShardedDeterministicAcrossWorkers(t *testing.T) {
	prof, opt := shardProfile(), shardOpt()
	mo := metrics.DefaultOptions()
	opt.Metrics = &mo
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	export := func(procs int) (ShardedResult, []byte) {
		runtime.GOMAXPROCS(procs)
		res, err := RunSharded(prof, SteinsGC, opt,
			ShardOptions{Channels: 4, Interleave: trace.InterleaveLine, EpochOps: 512})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.System.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	refRes, refJSON := export(1)
	for _, procs := range []int{2, 8} {
		res, js := export(procs)
		if !bytes.Equal(refJSON, js) {
			t.Fatalf("metrics JSON diverges between GOMAXPROCS 1 and %d", procs)
		}
		if !reflect.DeepEqual(refRes.Merged, res.Merged) {
			t.Fatalf("merged result diverges between GOMAXPROCS 1 and %d", procs)
		}
		for k := range refRes.Shards {
			if !reflect.DeepEqual(refRes.Shards[k], res.Shards[k]) {
				t.Fatalf("shard %d result diverges between GOMAXPROCS 1 and %d", k, procs)
			}
		}
	}
}

// TestRunShardedDeterministicAcrossEpochSizes: the epoch budget is a
// batching knob, not a semantic one — any epoch size yields the same run.
func TestRunShardedDeterministicAcrossEpochSizes(t *testing.T) {
	prof, opt := shardProfile(), shardOpt()
	run := func(epoch int) ShardedResult {
		res, err := RunSharded(prof, SCUESC, opt,
			ShardOptions{Channels: 4, Interleave: trace.InterleavePage, EpochOps: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(64)
	for _, epoch := range []int{1, 777, 100000} {
		if got := run(epoch); !reflect.DeepEqual(ref, got) {
			t.Fatalf("results diverge between epoch sizes 64 and %d", epoch)
		}
	}
}

// TestDriveStreamWarmupEpochBoundaryIdentity pins the pipelined epoch
// engine's warm-up reset against adversarial boundary placements (run
// under -cpu 1,2,8 in make check). The warm-up statistics reset must land
// at the same global-stream point no matter where epoch barriers fall —
// warm-up one op short of an epoch, exactly on one, one past one — and no
// matter how DriveStreamN calls slice the stream around it, including a
// call boundary straddling the reset inside a double-buffered split epoch.
// Results and metrics JSON must stay byte-identical to the straight run.
func TestDriveStreamWarmupEpochBoundaryIdentity(t *testing.T) {
	prof, opt := shardProfile(), shardOpt()
	opt.Ops = 2000
	mo := metrics.DefaultOptions()
	opt.Metrics = &mo

	drive := func(s Scheme, epoch int, chunks []int) (ShardedResult, []byte) {
		t.Helper()
		e := NewSharded(prof, s, opt,
			ShardOptions{Channels: 2, Interleave: trace.InterleaveLine, EpochOps: epoch})
		src := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
		for _, n := range chunks {
			if _, err := e.DriveStreamN(src, n); err != nil {
				t.Fatalf("%s epoch %d chunks %v: %v", s.Name, epoch, chunks, err)
			}
		}
		res := e.Result()
		if res.System == nil {
			t.Fatalf("%s: no system snapshot", s.Name)
		}
		var buf bytes.Buffer
		if err := res.System.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	for _, s := range []Scheme{SteinsGC, PipeSITGC, TriadSC} {
		// Warm-up offsets adversarial to the 256-op reference epoch: one
		// short of the boundary, exactly on it, one past it.
		for _, warm := range []int{255, 256, 257} {
			opt.WarmupOps = warm
			ref, refJSON := drive(s, 256, []int{-1})
			for _, epoch := range []int{256, 64} {
				for _, chunks := range [][]int{
					{-1},              // one call
					{warm, -1},        // call boundary exactly at the reset
					{warm - 1, 9, -1}, // reset crossed mid-call, mid-epoch
				} {
					got, gotJSON := drive(s, epoch, chunks)
					if !reflect.DeepEqual(ref.Merged, got.Merged) ||
						!reflect.DeepEqual(ref.Shards, got.Shards) {
						t.Fatalf("%s warm %d epoch %d chunks %v: results diverge from straight run",
							s.Name, warm, epoch, chunks)
					}
					if !bytes.Equal(refJSON, gotJSON) {
						t.Fatalf("%s warm %d epoch %d chunks %v: metrics JSON diverges",
							s.Name, warm, epoch, chunks)
					}
				}
			}
		}
	}
}

// TestShardedMatchesMultiSystem cross-checks the splitter against the
// multi-DIMM reference: routing the same stream through multi.System at
// the same interleave must leave every controller with the same stats as
// the sharded engine's channels (the splitter replicates multi's clock and
// chunk arithmetic exactly). Verified at the stats level in
// internal/multi's tests; here we pin the address/gap agreement.
func TestShardedSplitterAgreesWithMultiRoute(t *testing.T) {
	sp := trace.NewSplitter(nil, 4, trace.InterleavePage)
	for _, addr := range []uint64{0, 63, 64, 4095, 4096, 4097, 5 * 4096, 16*4096 + 123} {
		shard, local := sp.Route(addr)
		chunk := addr / 4096
		wantShard := int(chunk % 4)
		wantLocal := (chunk/4)*4096 + addr%4096
		if shard != wantShard || local != wantLocal {
			t.Fatalf("Route(%#x) = (%d, %#x), want (%d, %#x)", addr, shard, local, wantShard, wantLocal)
		}
	}
}

// TestRunShardedHashFillsExactSlice: hash interleave is exactly balanced,
// so a data region with no slack per channel holds a stream that touches
// every line of it.
func TestRunShardedHashFillsExactSlice(t *testing.T) {
	prof := shardProfile()
	opt := shardOpt()
	opt.DataBytes = prof.FootprintBytes // zero slack per shard
	lines := prof.FootprintBytes / 64
	ops := make([]trace.Op, lines)
	for l := uint64(0); l < lines; l++ {
		ops[l] = trace.Op{Addr: l * 64, IsWrite: true, Gap: 1}
	}
	res, err := RunShardedStream(trace.NewReplay("hash-fill", ops), SteinsGC, opt,
		ShardOptions{Channels: 4, Interleave: trace.InterleaveHash})
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res.Shards {
		if r.Ops != int(lines/4) {
			t.Fatalf("channel %d retired %d ops, want %d", k, r.Ops, lines/4)
		}
	}
}

// TestRunShardedStreamNeedsDataBytes: a stream carries no footprint, so
// a run without opt.DataBytes is refused with an error, not a panic.
func TestRunShardedStreamNeedsDataBytes(t *testing.T) {
	opt := shardOpt()
	opt.DataBytes = 0
	ops := []trace.Op{{Addr: 0, IsWrite: true, Gap: 1}}
	_, err := RunShardedStream(trace.NewReplay("no-footprint", ops), SteinsGC, opt, ShardOptions{})
	if err == nil || !strings.Contains(err.Error(), "DataBytes") {
		t.Fatalf("RunShardedStream without DataBytes: err = %v, want an error naming DataBytes", err)
	}
}

// TestShardedHashRouteIgnoresProbes: routing is a function of the address,
// so read-only probes (ReadGlobal, DataCounter) assign nothing and routing
// order does not matter: an engine probed at high addresses first homes
// every line where an engine walked from the top down does.
func TestShardedHashRouteIgnoresProbes(t *testing.T) {
	prof, opt := shardProfile(), shardOpt()
	so := ShardOptions{Channels: 4, Interleave: trace.InterleaveHash}
	probed, walked := NewSharded(prof, SteinsGC, opt, so), NewSharded(prof, SteinsGC, opt, so)
	top := prof.FootprintBytes - 64
	if _, err := probed.ReadGlobal(0, top-64*9); err != nil {
		t.Fatal(err)
	}
	probed.DataCounter(top - 64*3)
	channel := func(e *Sharded, addr uint64) (int, uint64) {
		c, local := e.home(addr)
		for k, ck := range e.Controllers() {
			if ck == c {
				return k, local
			}
		}
		t.Fatalf("%#x homed on no channel", addr)
		return 0, 0
	}
	for a := int64(top); a >= 0; a -= 64 {
		wk, wl := channel(walked, uint64(a))
		pk, pl := channel(probed, uint64(a))
		if wk != pk || wl != pl {
			t.Fatalf("%#x: (%d,%#x) after probes, (%d,%#x) walked top down", a, pk, pl, wk, wl)
		}
	}
}

// TestRunShardedPropagatesShardErrors: a failure inside one channel's
// controller must surface wrapped with the channel identity.
func TestRunShardedPropagatesShardErrors(t *testing.T) {
	prof, opt := shardProfile(), shardOpt()
	opt.Ops = 200
	_, err := RunSharded(prof, failScheme("fail-shard", 10), opt,
		ShardOptions{Channels: 4, Interleave: trace.InterleaveLine})
	if err == nil {
		t.Fatal("expected injected fault to surface")
	}
	if !strings.Contains(err.Error(), "sharded channel") || !strings.Contains(err.Error(), "fail-shard") {
		t.Fatalf("error missing channel identity: %v", err)
	}
}

// TestRunShardedSpeedup measures the acceptance criterion — four channels
// at least 2x faster than one — when the host actually has
// the parallelism; on smaller machines the ratio is meaningless, so skip.
func TestRunShardedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is slow")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("need >= 4 procs to demonstrate sharded speedup, have %d", p)
	}
	// -cpu can raise GOMAXPROCS past the hardware (e.g. -cpu 8 on a
	// 1-core CI box); wall-clock speedup needs real cores.
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >= 4 hardware cores to demonstrate sharded speedup, have %d", n)
	}
	prof, opt := shardProfile(), shardOpt()
	prof.FootprintBytes = 4 << 20
	opt.Ops = 400000

	start := time.Now()
	if _, err := RunSharded(prof, SteinsSC, opt, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)

	start = time.Now()
	if _, err := RunSharded(prof, SteinsSC, opt,
		ShardOptions{Channels: 4, Interleave: trace.InterleaveLine}); err != nil {
		t.Fatal(err)
	}
	sharded := time.Since(start)

	if sharded*2 > serial {
		t.Fatalf("4-channel run not >=2x faster: 1 channel %v, 4 channels %v", serial, sharded)
	}
}
