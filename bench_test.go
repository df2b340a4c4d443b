package steins

// The benchmarks below regenerate each table and figure of the paper's
// evaluation (§IV) at reduced scale — one reported metric per series the
// figure plots — plus the ablation benches DESIGN.md calls out. Run
//
//	go test -bench=. -benchmem
//
// for the quick pass, or `go run ./cmd/benchfigs -scale full` for
// paper-scale tables.

import (
	"bytes"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"steins/internal/bmt"
	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/crypt"
	"steins/internal/figures"
	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/rng"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/wb"
	"steins/internal/server"
	"steins/internal/sim"
	"steins/internal/snapshot"
	"steins/internal/trace"
	"steins/securemem"
)

// rngNew keeps the bench file decoupled from the rng package's name.
func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

// benchScale keeps each figure bench in the seconds range.
func benchScale() figures.Scale {
	return figures.Scale{Ops: 6000, Seed: 1, Fig17Caches: []int{16 << 10, 32 << 10}}
}

// reportGeomeans extracts the geomean row of a figure table into bench
// metrics named after the schemes. A malformed table — no rows, or a
// geomean row narrower than the scheme headers — fails the benchmark
// instead of panicking with an index error.
func reportGeomeans(b *testing.B, t interface {
	Rows() [][]string
}, headers []string) {
	b.Helper()
	rows := t.Rows()
	if len(rows) == 0 {
		b.Fatalf("figure table has no rows (want a geomean row)")
	}
	avg := rows[len(rows)-1]
	if len(avg) < len(headers) {
		b.Fatalf("geomean row has %d cells, want %d (%v)", len(avg), len(headers), avg)
	}
	for i := 1; i < len(headers); i++ {
		v, err := strconv.ParseFloat(avg[i], 64)
		if err != nil {
			b.Fatalf("geomean cell %q: %v", avg[i], err)
		}
		b.ReportMetric(v, headers[i]+"_x")
	}
}

func gcHeaders() []string { return []string{"workload", "WB-GC", "ASIT", "STAR", "Steins-GC"} }
func scHeaders() []string { return []string{"workload", "WB-SC", "Steins-GC", "Steins-SC"} }

// The comparison sweeps are deterministic for a fixed scale, so the figure
// benchmarks share one sweep per family, built once outside any timed
// region: a Fig benchmark then measures table construction alone, and
// BenchmarkGCSweepBuild/BenchmarkSCSweepBuild measure the simulations.
var (
	gcSweepOnce, scSweepOnce sync.Once
	gcSweepVal, scSweepVal   *figures.Sweep
	gcSweepErr, scSweepErr   error
)

func gcSweep(b *testing.B) *figures.Sweep {
	b.Helper()
	gcSweepOnce.Do(func() { gcSweepVal, gcSweepErr = figures.GCSweep(benchScale()) })
	if gcSweepErr != nil {
		b.Fatal(gcSweepErr)
	}
	return gcSweepVal
}

func scSweep(b *testing.B) *figures.Sweep {
	b.Helper()
	scSweepOnce.Do(func() { scSweepVal, scSweepErr = figures.SCSweep(benchScale()) })
	if scSweepErr != nil {
		b.Fatal(scSweepErr)
	}
	return scSweepVal
}

func benchGCFigure(b *testing.B, fig func(*figures.Sweep) interface{ Rows() [][]string }) {
	sw := gcSweep(b)
	b.ResetTimer()
	var t interface{ Rows() [][]string }
	for i := 0; i < b.N; i++ {
		t = fig(sw)
	}
	b.StopTimer()
	reportGeomeans(b, t, gcHeaders())
}

func benchSCFigure(b *testing.B, fig func(*figures.Sweep) interface{ Rows() [][]string }) {
	sw := scSweep(b)
	b.ResetTimer()
	var t interface{ Rows() [][]string }
	for i := 0; i < b.N; i++ {
		t = fig(sw)
	}
	b.StopTimer()
	reportGeomeans(b, t, scHeaders())
}

// BenchmarkGCSweepBuild times the GC comparison sweep itself — the
// simulations the Fig09/10/11/13/15 benchmarks used to (mis)charge to
// table rendering.
func BenchmarkGCSweepBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.GCSweep(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCSweepBuild times the SC comparison sweep (Fig12/14/16's
// input).
func BenchmarkSCSweepBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.SCSweep(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09ExecTimeGC(b *testing.B) {
	benchGCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig9(sw) })
}

func BenchmarkFig10WriteLatencyGC(b *testing.B) {
	benchGCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig10(sw) })
}

func BenchmarkFig11ReadLatencyGC(b *testing.B) {
	benchGCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig11(sw) })
}

func BenchmarkFig12ExecTimeSC(b *testing.B) {
	benchSCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig12(sw) })
}

func BenchmarkFig13WriteTrafficGC(b *testing.B) {
	benchGCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig13(sw) })
}

func BenchmarkFig14WriteTrafficSC(b *testing.B) {
	benchSCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig14(sw) })
}

func BenchmarkFig15EnergyGC(b *testing.B) {
	benchGCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig15(sw) })
}

func BenchmarkFig16EnergySC(b *testing.B) {
	benchSCFigure(b, func(sw *figures.Sweep) interface{ Rows() [][]string } { return figures.Fig16(sw) })
}

func BenchmarkFig17RecoveryTime(b *testing.B) {
	schemes := []sim.Scheme{sim.ASIT, sim.STAR, sim.SteinsGC, sim.SteinsSC}
	const cacheBytes = 32 << 10
	for i := 0; i < b.N; i++ {
		for _, s := range schemes {
			rep, err := sim.RecoveryAtCacheSize(s, cacheBytes, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(rep.TimeNS/1e6, s.Name+"_ms")
			}
		}
	}
}

func BenchmarkStorageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.StorageTable() == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.TableI() == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkOverflowAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.OverflowTable() == nil {
			b.Fatal("no table")
		}
	}
}

// --- ablation benches (DESIGN.md) -------------------------------------------

// ablationRun drives one workload/scheme pair and returns exec cycles.
func ablationRun(b *testing.B, factory memctrl.PolicyFactory, split bool,
	configure func(*memctrl.Config)) (uint64, uint64) {
	b.Helper()
	prof := trace.Profile{
		Name: "ablation", FootprintBytes: 32 << 20, WriteFrac: 0.5,
		GapMean: 300, Pattern: trace.Uniform,
	}
	opt := sim.Options{Ops: 8000, Seed: 1, MetaCacheBytes: 32 << 10, Configure: configure}
	r, err := sim.RunSharded(prof, sim.Scheme{Name: "ablation", Factory: factory, Split: split}, opt, sim.ShardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return r.Merged.ExecCycles, r.Merged.WriteBytes
}

// BenchmarkAblationNVBuffer contrasts Steins with and without the
// non-volatile parent-counter buffer (§III-E): without it, parent fetches
// return to the write critical path.
func BenchmarkAblationNVBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, _ := ablationRun(b, steins.Factory, false, nil)
		without, _ := ablationRun(b, steins.FactoryWithOptions(steins.Options{DisableNVBuffer: true}), false, nil)
		if i == b.N-1 {
			b.ReportMetric(float64(without)/float64(with), "nobuffer_over_buffer_x")
		}
	}
}

// BenchmarkAblationLazyEager contrasts the lazy and eager SIT update
// schemes of §II-C on the WB baseline.
func BenchmarkAblationLazyEager(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lazy, _ := ablationRun(b, wb.Factory, false, nil)
		eager, _ := ablationRun(b, wb.Factory, false, func(c *memctrl.Config) { c.EagerUpdate = true })
		if i == b.N-1 {
			b.ReportMetric(float64(eager)/float64(lazy), "eager_over_lazy_x")
		}
	}
}

// BenchmarkAblationRecordCache sweeps the number of record lines cached in
// the controller (Table I: 16).
func BenchmarkAblationRecordCache(b *testing.B) {
	for _, lines := range []int{4, 16, 64} {
		b.Run(strconv.Itoa(lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, traffic := ablationRun(b, steins.Factory, false, func(c *memctrl.Config) {
					c.RecordCacheLines = lines
				})
				if i == b.N-1 {
					b.ReportMetric(float64(traffic)/(1<<20), "write_MiB")
				}
			}
		})
	}
}

// BenchmarkAblationMetaCache sweeps the metadata cache size (§IV: larger
// caches deliver higher performance).
func BenchmarkAblationMetaCache(b *testing.B) {
	for _, kb := range []int{16, 64, 256} {
		b.Run(strconv.Itoa(kb)+"KiB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exec, _ := ablationRun(b, steins.Factory, false, func(c *memctrl.Config) {
					c.MetaCacheBytes = kb << 10
				})
				if i == b.N-1 {
					b.ReportMetric(float64(exec)/1e6, "exec_Mcycles")
				}
			}
		})
	}
}

// BenchmarkAblationSkipUpdate compares parent-counter headroom consumption
// of the skip-update and naive split-counter schemes (§III-B1): the same
// hot-spot write sequence advances the naive parent orders of magnitude
// faster, which is why the paper rejects that weighting.
func BenchmarkAblationSkipUpdate(b *testing.B) {
	const writes = 1 << 14
	var skipParent, naiveParent float64
	for i := 0; i < b.N; i++ {
		var skip, naive counter.Split
		for w := 0; w < writes; w++ {
			skip.Increment(0) // hot single block: worst case for overflows
			naive.IncrementNaive(0)
		}
		skipParent, naiveParent = float64(skip.Parent()), float64(naive.ParentNaive())
	}
	b.ReportMetric(skipParent, "skip_parent")
	b.ReportMetric(naiveParent, "naive_parent")
	b.ReportMetric(naiveParent/skipParent, "naive_over_skip_x")
}

// BenchmarkAblationSITvsBMT contrasts the update cost of a BMT branch
// (sequential hashes to the root, §II-C) with the SIT lazy update (one
// node plus its parent).
func BenchmarkAblationSITvsBMT(b *testing.B) {
	const blocks, hashCycles = 1 << 15, 40
	key, mac := crypt.NewKey(1), crypt.SipMAC{}
	var blk counter.Block
	leaves := make([]uint64, blocks)
	for i := range leaves {
		leaves[i] = bmt.LeafHash(key, mac, uint64(i), blk)
	}
	tree := bmt.New(leaves, key, mac)
	var bmtCycles uint64
	for i := 0; i < b.N; i++ {
		blk[0] = byte(i)
		leaf := i & (blocks - 1)
		bmtCycles += hashCycles * tree.Set(leaf, bmt.LeafHash(key, mac, uint64(leaf), blk))
	}
	const sitLazyCycles = 2 * hashCycles // leaf HMAC + parent update on flush
	b.ReportMetric(float64(bmtCycles)/float64(b.N), "bmt_cycles_per_update")
	b.ReportMetric(sitLazyCycles, "sit_lazy_cycles_per_flush")
}

// --- hot-path benches (arena metadata) ---------------------------------------

// hotController builds a small controller warmed by writing every covered
// line once, so the metadata arenas and cache sets are at steady-state
// capacity before measurement starts.
func hotController(b *testing.B) *memctrl.Controller {
	b.Helper()
	const dataBytes = 1 << 20
	c := memctrl.New(memctrl.DefaultConfig(dataBytes, true), steins.Factory)
	for addr := uint64(0); addr < dataBytes; addr += 64 {
		if err := c.WriteData(5, addr, [64]byte{byte(addr >> 6)}); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkHotWritePath measures a steady-state dirty-eviction write on a
// warm controller and enforces the arena-era allocation ceiling: the
// retire path must not allocate per operation (tags, wear, and lines are
// flat arrays; the tag MAC reuses the engine's message buffer).
func BenchmarkHotWritePath(b *testing.B) {
	c := hotController(b)
	var payload [64]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		addr := uint64(i) % (1 << 14) * 64
		if err := c.WriteData(5, addr, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		payload[0] = byte(i)
		addr := uint64(i) % (1 << 14) * 64
		i++
		if err := c.WriteData(5, addr, payload); err != nil {
			b.Fatal(err)
		}
	}); allocs > 1 {
		b.Fatalf("warm write path allocates %.2f times per op, ceiling 1", allocs)
	}
}

// BenchmarkHotReadPath measures a steady-state verified read and enforces
// its allocation ceiling: probe-only arena lookups mean a warm read must
// not allocate.
func BenchmarkHotReadPath(b *testing.B) {
	c := hotController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) % (1 << 14) * 64
		if _, err := c.ReadData(5, addr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		addr := uint64(i) % (1 << 14) * 64
		i++
		if _, err := c.ReadData(5, addr); err != nil {
			b.Fatal(err)
		}
	}); allocs > 1 {
		b.Fatalf("warm read path allocates %.2f times per op, ceiling 1", allocs)
	}
}

// TestRecoverySearchAllocs holds a leaf's recovery from its data to zero
// allocations per leaf: a Steins-SC restart reads ~1 k leaves this way, so
// a MAC message or written-slot list that escapes to the heap costs an
// allocation per leaf. On a fully written GC leaf and SC leaf of default
// controllers (the production MAC), the reader, the batched check and each
// slot's finisher run to their worst case: every candidate misses, so
// every finisher searches.
func TestRecoverySearchAllocs(t *testing.T) {
	for _, split := range []bool{false, true} {
		c := memctrl.New(memctrl.DefaultConfig(64<<10, split), steins.Factory)
		geo := &c.Layout().Geo
		for i := range int(geo.LeafCover) {
			if err := c.WriteData(0, geo.DataAddr(0, i), [64]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		eng := c.Engine()
		var l cme.Leaf
		run := func() {
			written := c.ReadLeafData(0, &l)
			for _, i := range written {
				l.SetCandidate(i, 1<<40)
			}
			eng.CheckHints(&l, written)
			for _, i := range written {
				if split {
					eng.RecoverSlotSC(&l, i)
				} else {
					eng.RecoverSlotGC(&l, i, 8)
				}
			}
		}
		if n := len(c.ReadLeafData(0, &l)); n != int(geo.LeafCover) {
			t.Fatalf("split=%v: %d written slots, want %d", split, n, geo.LeafCover)
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("split=%v: leaf recovery allocates %.1f times per leaf, want 0", split, allocs)
		}
	}
}

// --- recovery downtime -------------------------------------------------------

// BenchmarkRecoveryDowntime times each scheme's crash recovery on the host
// clock beside the modelled one. The crashed image of every case in
// sim.DowntimeCases is built once; each iteration restores a fresh
// controller from a fresh state of it outside the timer, so only Recover
// is timed. It
// reports host and simulated milliseconds per recovery, their ratio, and
// the MACs and NVM reads the recovery charged (pinned by
// internal/figures/testdata/downtime.txt).
func BenchmarkRecoveryDowntime(b *testing.B) {
	for _, dc := range sim.DowntimeCases() {
		b.Run(dc.Scheme.Name, func(b *testing.B) {
			e, err := sim.CrashedAtCacheSize(dc.Scheme, dc.CacheBytes, 1)
			if err != nil {
				b.Fatal(err)
			}
			crashed := e.Controllers()[0]
			cfg := *crashed.Config()
			var rep memctrl.RecoveryReport
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A restore adopts its state's device blocks, so every
				// iteration captures a state of its own.
				b.StopTimer()
				st, err := crashed.State()
				if err != nil {
					b.Fatal(err)
				}
				c := memctrl.New(cfg, dc.Scheme.Factory)
				if err := c.Restore(st); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if rep, err = c.Recover(); err != nil {
					b.Fatal(err)
				}
			}
			hostMS := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e6
			simMS := rep.TimeNS / 1e6
			b.ReportMetric(hostMS, "host_ms")
			b.ReportMetric(simMS, "sim_ms")
			b.ReportMetric(hostMS/simMS, "host_per_sim")
			b.ReportMetric(float64(rep.MACOps), "macs")
			b.ReportMetric(float64(rep.NVMReads), "nvm_reads")
		})
	}
}

// --- sharded engine benches --------------------------------------------------

// shardedBenchProfile is sized so the per-channel working set still
// misses the metadata cache: the interesting regime for interleaving.
func shardedBenchProfile() trace.Profile {
	return trace.Profile{
		Name: "sharded-bench", FootprintBytes: 4 << 20, WriteFrac: 0.5,
		GapMean: 10, Pattern: trace.Uniform,
	}
}

// BenchmarkRunSchemes tracks the relaxed-persistence scheme family on the
// same trace and options as BenchmarkRunSharded/1ch, so their host-time
// cost relative to the Steins baseline is part of the persisted trajectory.
func BenchmarkRunSchemes(b *testing.B) {
	prof := shardedBenchProfile()
	opt := sim.Options{Ops: 20000, Seed: 3, MetaCacheBytes: 64 << 10}
	for _, s := range []sim.Scheme{sim.PipeSITGC, sim.PipeSITSC, sim.TriadGC, sim.TriadSC} {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := sim.RunSharded(prof, s, opt, sim.ShardOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(r.Merged.Ops)*float64(b.N)/b.Elapsed().Seconds(), "ops_per_sec")
				}
			}
		})
	}
}

// BenchmarkRunSharded drives the same trace through the engine at 1, 2 and
// 4 channels. On a multi-core host the 4-channel run should beat the
// 1-channel one on wall clock; on one core it measures the splitter +
// merge overhead instead.
func BenchmarkRunSharded(b *testing.B) {
	prof := shardedBenchProfile()
	opt := sim.Options{Ops: 20000, Seed: 3, MetaCacheBytes: 64 << 10}
	for _, ch := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(ch)+"ch", func(b *testing.B) {
			so := sim.ShardOptions{Channels: ch, Interleave: trace.InterleaveLine}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := sim.RunSharded(prof, sim.SteinsSC, opt, so)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(r.Merged.Ops)*float64(b.N)/b.Elapsed().Seconds(), "ops_per_sec")
				}
			}
		})
	}
}

// BenchmarkSplitterEpoch measures the trace splitter alone and enforces
// the steady-state allocation ceiling: epoch batches are reused, so a warm
// splitter must not allocate per epoch.
func BenchmarkSplitterEpoch(b *testing.B) {
	prof := shardedBenchProfile()
	sp := trace.NewSplitter(nil, 4, trace.InterleaveLine)
	ops := make([]trace.Op, 4096)
	src := trace.New(prof, 11, len(ops))
	for i := range ops {
		op, _ := src.Next()
		ops[i] = op
	}
	rep := trace.NewReplay(prof.Name, ops)
	sp.Rebind(rep)
	if _, _, err := sp.NextEpoch(len(ops)); err != nil {
		b.Fatal(err) // warm the per-shard buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Reset()
		if _, _, err := sp.NextEpoch(len(ops)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, func() {
		rep.Reset()
		if _, _, err := sp.NextEpoch(len(ops)); err != nil {
			b.Fatal(err)
		}
	}); allocs > 0 {
		b.Fatalf("warm splitter allocates %.1f times per epoch, want 0", allocs)
	}
}

// --- snapshot benches --------------------------------------------------------

// snapshotBenchProfile keeps the captured state realistic: the working set
// misses the metadata cache, so the dirty sets and device overlays are
// populated when the snapshot is taken.
func snapshotBenchProfile() trace.Profile {
	return trace.Profile{
		Name: "snapshot-bench", FootprintBytes: 1 << 20, WriteFrac: 0.5,
		GapMean: 10, Pattern: trace.Uniform,
	}
}

func init() {
	trace.Register(snapshotBenchProfile())
}

// snapshotBenchEngine drives a one-channel run to the middle and hands
// back everything a capture needs.
func snapshotBenchEngine(b *testing.B) (snapshot.RunHeader, *trace.Generator, *sim.Sharded) {
	b.Helper()
	h := snapshot.RunHeader{
		Workload: "snapshot-bench", Scheme: "Steins-SC",
		TotalOps: 4000, WarmupOps: 500, Seed: 21,
		MetaCacheBytes: 32 << 10, Channels: 1,
		HasMetrics: true, Metrics: metrics.Options{SampleEvery: 64, RingCap: 64},
	}
	prof, _ := trace.ByName(h.Workload)
	s, ok := sim.SchemeByName(h.Scheme)
	if !ok {
		b.Fatalf("unknown scheme %q", h.Scheme)
	}
	opt, so := h.Options()
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	e := sim.NewSharded(prof, s, opt, so)
	if _, err := e.DriveStreamN(g, 2500); err != nil {
		b.Fatal(err)
	}
	return h, g, e
}

// BenchmarkSnapshotSave measures the warm save path (capture + serialize)
// and enforces its allocation ceiling: the per-save allocation count must
// not grow past the budget even as state capture touches every layer.
func BenchmarkSnapshotSave(b *testing.B) {
	h, g, e := snapshotBenchEngine(b)
	save := func() int {
		st, err := snapshot.CaptureSharded(h, g, e)
		if err != nil {
			b.Fatal(err)
		}
		wire, err := snapshot.Encode(st)
		if err != nil {
			b.Fatal(err)
		}
		return len(wire)
	}
	size := save() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save()
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "snapshot_bytes")
	// Ceiling with ~2x headroom over the measured warm path; a regression
	// that makes capture allocate per cache line or per device block blows
	// straight through it.
	allocs := testing.AllocsPerRun(10, func() { save() })
	b.ReportMetric(allocs, "allocs_per_save")
	if ceiling := 2_000.0; allocs > ceiling {
		b.Fatalf("warm save path allocates %.0f times, ceiling %.0f", allocs, ceiling)
	}
}

// BenchmarkSnapshotLoad measures the full load path: envelope decode,
// state rebuild, and engine restore into a fresh system.
func BenchmarkSnapshotLoad(b *testing.B) {
	h, g, e := snapshotBenchEngine(b)
	st, err := snapshot.CaptureSharded(h, g, e)
	if err != nil {
		b.Fatal(err)
	}
	wire, err := snapshot.Encode(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := snapshot.Decode[snapshot.RunState](bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := back.Resume(); err != nil {
			b.Fatal(err)
		}
	}
}

// restartCheckpoint writes the daemon checkpoint BenchmarkServerRestart
// restarts from: a 4 MiB Steins-SC tenant over 2 PGs × 2 channels (the
// end-to-end restart benchmark's tenant shape), every block written once
// and a seeded eighth of them rewritten, so the metadata cache holds a
// dirty set for crash recovery to rebuild.
func restartCheckpoint(b *testing.B) (string, server.Config) {
	const poolBytes = 4 << 20
	cfg := server.Config{Tenants: []server.TenantConfig{{
		Name: "bench", Scheme: securemem.SteinsSC, PGs: 2, Channels: 2,
		PoolBytes: poolBytes, KeySeed: 1,
	}}}
	p, err := server.NewPool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const lines = poolBytes / 64
	src := rngNew(1)
	spec := make([]server.OpSpec, 0, 64)
	for i := 0; i < lines+lines/8; i++ {
		addr := uint64(i) * 64
		if i >= lines {
			addr = src.Uint64n(lines) * 64
		}
		op := server.OpSpec{IsWrite: true, Addr: addr}
		op.Data[0], op.Data[1] = byte(i), byte(i>>8)
		if spec = append(spec, op); len(spec) == cap(spec) {
			if _, aerr := p.Do("bench", spec); aerr != nil {
				b.Fatal(aerr)
			}
			spec = spec[:0]
		}
	}
	st, err := p.State()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "server.ckpt")
	if err := snapshot.SaveFile(path, st); err != nil {
		b.Fatal(err)
	}
	return path, cfg
}

// BenchmarkServerRestart times the three steps of a daemon restart from a
// checkpoint, each on its own: load (read, checksum and parse the file),
// restore (the checkpoint into a freshly built pool) and recover (crash
// and recover every placement group). Each iteration builds what its step
// starts from outside the timer, the restore step a freshly loaded state.
func BenchmarkServerRestart(b *testing.B) {
	path, cfg := restartCheckpoint(b)
	restored := func(b *testing.B) *server.Pool {
		st, err := snapshot.LoadFile[snapshot.ServerState](path)
		if err != nil {
			b.Fatal(err)
		}
		p, err := server.NewPool(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.RestoreState(st); err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.LoadFile[snapshot.ServerState](path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A restore adopts the loaded state's blocks, so every
			// iteration restores a state of its own.
			b.StopTimer()
			st, err := snapshot.LoadFile[snapshot.ServerState](path)
			if err != nil {
				b.Fatal(err)
			}
			p, err := server.NewPool(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := p.RestoreState(st); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			p.Close()
			b.StartTimer()
		}
	})
	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := restored(b)
			b.StartTimer()
			if recs := p.CrashRecoverAll(); !recs[0].Recovered {
				b.Fatalf("tenant not recovered: %+v", recs[0])
			}
			b.StopTimer()
			p.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkServePath measures the serving layer end to end — admission,
// write coalescing, placement-group routing and the engine epoch — with
// concurrent clients hammering one tenant (2 PGs × 2 channels, Steins-SC)
// through the same Pool.Do path the HTTP handlers use.
func BenchmarkServePath(b *testing.B) {
	const poolBytes = 256 << 10
	p, err := server.NewPool(server.Config{Tenants: []server.TenantConfig{{
		Name: "bench", Scheme: securemem.SteinsSC, PGs: 2, PoolBytes: poolBytes,
		Channels: 2, MaxInFlight: 512, MaxQueuedOps: 8192, BatchOps: 64,
	}}})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		spec := make([]server.OpSpec, 1)
		for pb.Next() {
			i := next.Add(1)
			spec[0] = server.OpSpec{IsWrite: i%4 != 0, Addr: (i * 64) % poolBytes}
			spec[0].Data[0] = byte(i)
			for {
				ops, aerr := p.Do("bench", spec)
				if aerr == nil {
					if ops[0].Err != nil {
						b.Fatal(ops[0].Err)
					}
					break
				}
				if aerr.Status != 429 {
					b.Fatal(aerr)
				}
			}
		}
	})
	b.StopTimer()
	adm := p.Tenant("bench").Admission()
	if adm.Batches > 0 {
		b.ReportMetric(float64(adm.Accepted)/float64(adm.Batches), "ops_per_batch")
	}
}
