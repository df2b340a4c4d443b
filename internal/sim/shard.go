package sim

import (
	"errors"
	"fmt"
	"sync"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/multi"
	"steins/internal/trace"
)

// ShardOptions parameterise the engine's channel layout. The zero value is
// one channel: the one-controller system every figure of the paper models.
type ShardOptions struct {
	// Channels is the number of independent controllers the address space
	// is interleaved across (<= 0: 1). One channel is the bare controller:
	// it sees every op at its global address and gap.
	Channels int
	// Interleave selects the address-to-channel mapping. It is ignored at
	// one channel, which has nothing to interleave.
	Interleave trace.Interleave
	// EpochOps is the number of source operations routed per epoch barrier
	// (0: 4096). Each epoch is split sequentially — fixing the virtual
	// clock — then the per-channel batches are driven in parallel and the
	// engine barriers before the next epoch, so memory stays bounded and
	// results are independent of GOMAXPROCS.
	EpochOps int
}

func (so *ShardOptions) setDefaults() {
	if so.Channels <= 0 {
		so.Channels = 1
	}
	if so.Channels == 1 {
		// Line interleave at one channel is the identity map; the page
		// mode would round the region up to a page, which one channel does
		// not need.
		so.Interleave = trace.InterleaveLine
	}
	if so.EpochOps <= 0 {
		so.EpochOps = 4096
	}
}

// ShardedResult carries the merged system-level view of one sharded run
// plus the per-channel results it was folded from.
type ShardedResult struct {
	// Merged is the system view: retired ops and traffic summed through the
	// Stats/NVM Merge machinery, ExecCycles the parallel maximum across
	// channels (channels drain concurrently, so the slowest bounds the
	// makespan), latencies recomputed from the merged sums. At one channel
	// its Snapshot is that channel's own, series and per-op phase
	// histograms included, named after the workload.
	Merged Result
	// Shards holds one Result per channel, in channel order.
	Shards []Result
	// System is the merged + per-channel metrics export; nil unless
	// Options.Metrics was set.
	System *metrics.SystemSnapshot
}

// Sharded is the simulation engine: one trace partitioned across N
// independent controllers by an address-interleave function, driven in
// parallel under an epoch-barrier virtual clock. N = 1 is the
// one-controller system; there is no other engine.
//
// Determinism: the splitter is sequential and defines each channel's exact
// operation sequence (local addresses, local gaps, payload identities)
// before any parallel work happens; each channel is then driven by exactly
// one goroutine per epoch over private state. Results are therefore
// bit-identical for any GOMAXPROCS.
//
// Correctness of the split: a channel owns whole cache lines (every
// interleave chunk is a multiple of the 64 B line), so a write-back and
// all metadata derived from it — counter leaf, tree branch, records,
// shadow slots, tags — live on that channel's controller. Each channel is
// a complete secure-memory system with its own integrity tree and trust
// base, which is exactly the per-DIMM model of §IV-F.
type Sharded struct {
	prof       trace.Profile
	scheme     Scheme
	opt        Options
	so         ShardOptions
	sp         *trace.Splitter
	sys        *multi.System // private: the splitter is the only router
	driven     uint64        // source ops driven, including warm-up
	warmupDone bool

	// Double-buffered epoch batches: the splitter fills one set while the
	// workers drive the other, so the sequential split of epoch e+1
	// overlaps the parallel drive of epoch e.
	bufA, bufB [][]trace.ShardedOp
}

// NewSharded builds the engine: Channels controllers, each owning a
// 1/Channels slice of the (possibly rounded-up) data region, plus the
// splitter that will route streams across them. Drive it with DriveStream
// (or let RunSharded do everything).
func NewSharded(prof trace.Profile, s Scheme, opt Options, so ShardOptions) *Sharded {
	so.setDefaults()
	dataBytes := opt.DataBytes
	if dataBytes == 0 {
		dataBytes = prof.FootprintBytes * 2
	}
	if dataBytes < prof.FootprintBytes {
		panic(fmt.Sprintf("sim: data region %d smaller than %s footprint %d",
			dataBytes, prof.Name, prof.FootprintBytes))
	}
	cfg := memctrl.DefaultConfig(trace.ShardBytes(dataBytes, so.Channels, so.Interleave), s.Split)
	if opt.MetaCacheBytes != 0 {
		cfg.MetaCacheBytes = opt.MetaCacheBytes
	}
	// Divide the SRAM budget evenly across the channels, so the total
	// matches the one-channel configuration, rounding down to a whole
	// number of sets (the cache requires a multiple of ways*lineSize) with
	// a two-set floor so extreme channel counts stay functional.
	set := cfg.MetaCacheWays * 64
	cfg.MetaCacheBytes = max(cfg.MetaCacheBytes/so.Channels/set*set, 2*set)
	if opt.Configure != nil {
		opt.Configure(&cfg)
	}
	sys := multi.New(so.Channels, cfg, s.Factory, so.Interleave.ChunkBytes())
	if opt.Metrics != nil {
		sys.SetMetrics(*opt.Metrics)
	}
	return &Sharded{prof: prof, scheme: s, opt: opt, so: so, sys: sys}
}

// Controllers returns the per-channel controllers, in channel order.
func (e *Sharded) Controllers() []*memctrl.Controller { return e.sys.Controllers() }

// home maps a global data address to its channel's controller and local
// address, by the splitter's routing.
func (e *Sharded) home(addr uint64) (*memctrl.Controller, uint64) {
	e.lazySplitter()
	k, local := e.sp.Route(addr)
	return e.Controllers()[k], local
}

// ReadGlobal routes a read for a global address to its channel; tests and
// post-recovery probes use it.
func (e *Sharded) ReadGlobal(gap, addr uint64) ([64]byte, error) {
	c, local := e.home(addr)
	return c.ReadData(gap, local)
}

// DataCounter returns the current encryption-counter state of a global
// address's leaf slot on its owning channel.
func (e *Sharded) DataCounter(addr uint64) uint64 {
	c, local := e.home(addr)
	return c.DataCounter(local)
}

func (e *Sharded) lazySplitter() {
	if e.sp == nil {
		// DriveStream rebinds the source per call; the virtual clock
		// persists so multi-phase drives stay consistent.
		e.sp = trace.NewSplitter(nil, e.so.Channels, e.so.Interleave)
	}
}

// DriveStream routes a global operation stream across the channels and
// drives them in parallel, epoch by epoch. It may be called repeatedly;
// the virtual clock carries over, so a sequence of calls behaves like one
// concatenated stream. Payload identity is global, whatever the channel
// count: op i (counted globally, across calls) writing global address a
// stores Payload(a, i).
func (e *Sharded) DriveStream(src trace.Stream) error {
	_, err := e.DriveStreamN(src, -1)
	return err
}

// epochRun is one dispatched epoch in flight: the goroutines driving its
// per-channel batches, their error slots, and the source-op count to fold
// into the totals once it retires.
type epochRun struct {
	n    int
	errs []error
	wg   sync.WaitGroup
}

// DriveStreamN is DriveStream bounded to at most maxOps source operations
// (maxOps < 0 drives the stream to exhaustion). It returns the number of
// source ops consumed, stopping exactly at the bound on an epoch barrier —
// the engine is then at a retired-op boundary and can be snapshotted.
// Epoch placement never changes results (each channel's op sequence is
// fixed by the sequential split), so a run checkpointed at an arbitrary
// boundary stays bit-identical to the straight run.
//
// The loop is a depth-1 pipeline: while epoch e's batches drive on the
// worker goroutines, the sequential splitter routes epoch e+1 into the
// idle buffer set. Epoch e+1 is only dispatched after epoch e has fully
// retired (wait-before-dispatch), so each controller still sees its ops
// strictly in split order and the warm-up statistics reset still lands on
// an exact epoch boundary — results stay bit-identical to the serial
// loop; only the split latency is hidden.
func (e *Sharded) DriveStreamN(src trace.Stream, maxOps int) (int, error) {
	e.lazySplitter()
	e.sp.Rebind(src)
	if e.bufA == nil {
		e.bufA = make([][]trace.ShardedOp, e.so.Channels)
		e.bufB = make([][]trace.ShardedOp, e.so.Channels)
	}
	ctrls := e.Controllers()
	warm := uint64(e.opt.WarmupOps)
	total := 0
	var inflight *epochRun

	// finish retires the in-flight epoch: wait for its workers, surface
	// their errors, fold its op count, and apply the warm-up reset when the
	// boundary is crossed. No-op when the pipeline is empty.
	finish := func() error {
		if inflight == nil {
			return nil
		}
		r := inflight
		inflight = nil
		r.wg.Wait()
		for k, err := range r.errs {
			if err != nil {
				r.errs[k] = fmt.Errorf("sim: sharded channel %d (%s/%s): %w",
					k, e.prof.Name, e.scheme.Name, err)
			}
		}
		if err := errors.Join(r.errs...); err != nil {
			return err
		}
		e.driven += uint64(r.n)
		total += r.n
		if !e.warmupDone && warm > 0 && e.driven >= warm {
			for _, c := range ctrls {
				c.ResetStats()
			}
			e.warmupDone = true
		}
		return nil
	}

	// dispatch launches one goroutine per non-empty channel batch, so it
	// never blocks the splitting thread.
	dispatch := func(batches [][]trace.ShardedOp, n int) {
		r := &epochRun{n: n, errs: make([]error, len(ctrls))}
		for k := range ctrls {
			if len(batches[k]) == 0 {
				continue
			}
			r.wg.Add(1)
			go func(k int) {
				defer r.wg.Done()
				r.errs[k] = driveShard(ctrls[k], batches[k])
			}(k)
		}
		inflight = r
	}

	cur, idle := e.bufA, e.bufB
	for {
		// Budget arithmetic counts the in-flight epoch as already consumed:
		// its ops are committed to the controllers even though finish has
		// not folded them yet.
		consumedCall, consumedLife := total, e.driven
		if inflight != nil {
			consumedCall += inflight.n
			consumedLife += uint64(inflight.n)
		}
		budget := e.so.EpochOps
		if maxOps >= 0 && budget > maxOps-consumedCall {
			budget = maxOps - consumedCall
		}
		if budget == 0 {
			err := finish()
			return total, err
		}
		// Force an epoch boundary exactly at the warm-up boundary so every
		// channel resets its statistics at the same global-stream point.
		if warm > consumedLife && uint64(budget) > warm-consumedLife {
			budget = int(warm - consumedLife)
		}
		batches, n := e.sp.NextEpochInto(budget, cur)
		if n == 0 {
			err := finish()
			return total, err
		}
		if err := finish(); err != nil {
			return total, err
		}
		dispatch(batches, n)
		cur, idle = idle, cur
	}
}

// driveShard replays one channel's epoch batch on its controller.
func driveShard(c *memctrl.Controller, batch []trace.ShardedOp) error {
	for i := range batch {
		op := &batch[i]
		var err error
		if op.IsWrite {
			err = c.WriteData(op.Gap, op.Addr, Payload(op.GlobalAddr, int(op.Index)))
		} else {
			_, err = c.ReadData(op.Gap, op.Addr)
		}
		if err != nil {
			return fmt.Errorf("op %d (%v global %#x local %#x): %w",
				op.Index, op.IsWrite, op.GlobalAddr, op.Addr, err)
		}
	}
	return nil
}

// ForceAllDirty dirties every cached node on every channel (§IV-D).
func (e *Sharded) ForceAllDirty() {
	for _, c := range e.Controllers() {
		c.ForceAllDirty()
	}
}

// Crash fails the whole machine: every channel loses its volatile state.
func (e *Sharded) Crash() { e.sys.Crash() }

// Recover rebuilds every channel concurrently — each owns a disjoint tree,
// so recovery is shard-by-shard — and returns the per-channel reports plus
// the aggregate (work summed, time the parallel maximum).
func (e *Sharded) Recover() ([]memctrl.RecoveryReport, memctrl.RecoveryReport, error) {
	return e.sys.Recover()
}

// VerifyNVM runs the deep persisted-tree oracle on every channel.
func (e *Sharded) VerifyNVM() error {
	for k, c := range e.Controllers() {
		if err := c.VerifyNVM(); err != nil {
			return fmt.Errorf("sim: sharded channel %d: %w", k, err)
		}
	}
	return nil
}

// Result assembles the merged and per-channel results of everything driven
// so far.
func (e *Sharded) Result() ShardedResult {
	res := ShardedResult{}
	var snaps []metrics.Snapshot
	for k, c := range e.Controllers() {
		shardProf := e.prof
		shardProf.Name = fmt.Sprintf("%s#%d", e.prof.Name, k)
		st := c.Stats()
		r := collect(c, shardProf, e.scheme, int(st.DataReads+st.DataWrites))
		res.Shards = append(res.Shards, r)
		if r.Snapshot != nil {
			snaps = append(snaps, *r.Snapshot)
		}
	}
	t := e.sys.Totals()
	res.Merged = Result{
		Workload:    e.prof.Name,
		Scheme:      e.scheme.Name,
		Ops:         int(t.Ctrl.DataReads + t.Ctrl.DataWrites),
		ExecCycles:  t.MeasuredExecCycles,
		AvgReadLat:  t.Ctrl.AvgReadLatency(),
		AvgWriteLat: t.Ctrl.AvgWriteLatency(),
		WriteBytes:  t.NVM.WriteBytes(),
		EnergyPJ:    t.EnergyPJ,
		MetaHitRate: t.Cache.HitRate(),
		NVM:         t.NVM,
		Ctrl:        t.Ctrl,
	}
	if len(snaps) > 0 {
		res.System = metrics.MergeSnapshots(snaps)
		res.System.Merged.Workload = e.prof.Name
		res.Merged.Snapshot = &res.System.Merged
		if len(snaps) == 1 {
			// The merge keeps only what sums across channels; one channel
			// is the whole system, so its full snapshot is the system view.
			own := snaps[0]
			own.Workload = e.prof.Name
			res.Merged.Snapshot = &own
		}
	}
	return res
}

// RunSharded replays one workload through one scheme across Channels
// interleaved controllers and returns the merged system result.
func RunSharded(prof trace.Profile, s Scheme, opt Options, so ShardOptions) (ShardedResult, error) {
	e := NewSharded(prof, s, opt, so)
	if err := e.DriveStream(trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)); err != nil {
		return ShardedResult{}, err
	}
	return e.Result(), nil
}

// RunShardedStream replays an arbitrary operation stream across Channels
// interleaved controllers. opt.DataBytes is required (streams carry no
// footprint information, and a run without it is refused); opt.Ops/Seed
// are ignored.
func RunShardedStream(stream trace.Stream, s Scheme, opt Options, so ShardOptions) (ShardedResult, error) {
	if opt.DataBytes == 0 {
		return ShardedResult{}, errors.New("sim: RunShardedStream requires DataBytes")
	}
	prof := trace.Profile{Name: stream.Name(), FootprintBytes: opt.DataBytes}
	e := NewSharded(prof, s, opt, so)
	if err := e.DriveStream(stream); err != nil {
		return ShardedResult{}, err
	}
	return e.Result(), nil
}

// RunShardedWithCrash drives the workload, collects the results, then
// crashes and recovers the machine through CrashRecover.
func RunShardedWithCrash(prof trace.Profile, s Scheme, opt Options, so ShardOptions, forceAllDirty bool) (ShardedResult, memctrl.RecoveryReport, error) {
	e := NewSharded(prof, s, opt, so)
	if err := e.DriveStream(trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)); err != nil {
		return ShardedResult{}, memctrl.RecoveryReport{}, err
	}
	res := e.Result()
	rep, err := e.CrashRecover(forceAllDirty)
	return res, rep, err
}

// CrashRecover is the end-of-run crash step: optionally force every cached
// node dirty (the §IV-D assumption), crash the whole machine, recover every
// channel in parallel, and probe a 200-read sample of the workload. It
// returns the aggregate recovery report. Collect results before calling it:
// recovery and the probe add device traffic of their own.
func (e *Sharded) CrashRecover(forceAllDirty bool) (memctrl.RecoveryReport, error) {
	if forceAllDirty {
		e.ForceAllDirty()
	}
	e.Crash()
	_, agg, err := e.Recover()
	if err != nil {
		return agg, err
	}
	g := trace.New(e.prof, e.opt.Seed+1, 200)
	for {
		op, ok := g.Next()
		if !ok {
			return agg, nil
		}
		if _, rerr := e.ReadGlobal(op.Gap, op.Addr); rerr != nil {
			// Quarantine fences are degraded recovery's designed outcome
			// (fail-fast containment, accounted in the report), not probe
			// failures.
			var qe *memctrl.QuarantineError
			if errors.As(rerr, &qe) {
				continue
			}
			return agg, fmt.Errorf("sim: post-recovery read failed: %w", rerr)
		}
	}
}
