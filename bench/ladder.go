package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/server"
	"steins/internal/sim"
	"steins/internal/trace"
	"steins/securemem"
)

// The layer ladder replays the same seeded stream — the first ladderOps
// ops of client 0 — at each layer's public entry point on freshly built
// engines, top to bottom:
//
//	http       the handler securememd serves, over a loopback connection
//	server     server.Pool.Do
//	securemem  one securemem.Memory per placement group
//	multi      one multi.System per placement group
//	memctrl    one memctrl.Controller per channel of each group
//
// Every rung does the same simulated work, which the ladder asserts by
// comparing every controller's Stats between adjacent rungs; a layer's self
// time is then its rung's time minus the rung below. Each rung records one
// span per request, so the tracer's own cost is the same on every rung.

// ladderInput is the stream and engine shape a workload hands the ladder.
type ladderInput struct {
	tenant  server.TenantConfig
	reqOps  int
	streams [][]op // per client; the ladder replays prefixes
}

func (b *bench) ladderOps() int {
	if b.opt.quick {
		return 256
	}
	return 2048
}

// route is one op's home below the pool: its placement group and
// group-local address, then its channel, channel-local address and the
// arrival gap that channel's controller sees.
type route struct {
	op      int // index in the ladder stream
	addr    uint64
	pg, ch  int
	pgLocal uint64
	chLocal uint64
	gap     uint64
}

// routeOps routes ops as the pool and securemem do, with the splitter as
// the one owner of the interleave arithmetic: across placement groups,
// then each group's stream across its channels. securemem issues every
// request one cycle after the previous, so a group's stream has gap 1 and
// the channel gaps are the splitter's local gaps of that stream.
func routeOps(ops []op, pgs, channels int) ([]route, error) {
	rt := make([]route, len(ops))
	src := make([]trace.Op, len(ops))
	for i, o := range ops {
		rt[i].op, rt[i].addr = i, o.addr()
		src[i] = trace.Op{Addr: o.addr(), IsWrite: o.write(), Gap: 1}
	}
	byPG, _, err := trace.NewSplitter(trace.NewReplay("ladder", src), pgs, trace.InterleaveLine).NextEpoch(len(src))
	if err != nil {
		return nil, err
	}
	for pg, batch := range byPG {
		sub := make([]trace.Op, len(batch))
		for j, so := range batch {
			rt[so.Index].pg, rt[so.Index].pgLocal = pg, so.Addr
			sub[j] = trace.Op{Addr: so.Addr, IsWrite: so.IsWrite, Gap: 1}
		}
		byCh, _, err := trace.NewSplitter(trace.NewReplay("pg", sub), channels, trace.InterleaveLine).NextEpoch(len(sub))
		if err != nil {
			return nil, err
		}
		for ch, cb := range byCh {
			for _, so := range cb {
				r := &rt[batch[so.Index].Index]
				r.ch, r.chLocal, r.gap = ch, so.Addr, so.Gap
			}
		}
	}
	return rt, nil
}

// lowRung drives a layer below the pool one op at a time, following the
// precomputed routes in stream order.
type lowRung struct {
	routes []route
	pos    int
	apply  func(r *route, o *reqOp) (securemem.Block, error)
}

func (l *lowRung) do(req []reqOp, got []securemem.Block) error {
	for i := range req {
		r := &l.routes[l.pos]
		l.pos++
		if r.addr != req[i].addr {
			return fmt.Errorf("ladder: op %d is %#x but its route is for %#x", l.pos-1, req[i].addr, r.addr)
		}
		blk, err := l.apply(r, &req[i])
		if err != nil {
			return fmt.Errorf("%w: %v", errFailed, err)
		}
		got[i] = blk
	}
	return nil
}

// ctrlSig is one controller's simulated outcome.
type ctrlSig struct {
	stats memctrl.Stats
	exec  uint64
}

func ctrlSigs(groups [][]*memctrl.Controller) []ctrlSig {
	var out []ctrlSig
	for _, cs := range groups {
		for _, c := range cs {
			out = append(out, ctrlSig{c.Stats(), c.ExecCycles()})
		}
	}
	return out
}

func poolSigs(p *server.Pool) ([]ctrlSig, error) {
	st, err := p.State()
	if err != nil {
		return nil, err
	}
	var out []ctrlSig
	for _, pg := range st.Tenants[0].PGs {
		for i := range pg.Channels {
			out = append(out, ctrlSig{pg.Channels[i].Stats, pg.Channels[i].BusyUntil})
		}
	}
	return out, nil
}

// ladderEngines builds the engines of the rungs below the pool exactly as
// the pool does: securemem.Config from the tenant, and for multi and
// memctrl the controller configuration securemem derives from it.
type ladderEngines struct {
	tc      server.TenantConfig
	pgBytes uint64
	tmpl    memctrl.Config
	factory memctrl.PolicyFactory
}

func newLadderEngines(tc server.TenantConfig) (*ladderEngines, error) {
	if tc.Interleave != "" && tc.Interleave != "line" {
		return nil, fmt.Errorf("ladder: tenant interleave %q, want line", tc.Interleave)
	}
	e := &ladderEngines{tc: tc, pgBytes: trace.ShardBytes(tc.PoolBytes, tc.PGs, trace.InterleaveLine)}
	m, err := e.memory()
	if err != nil {
		return nil, err
	}
	e.tmpl = *m.Controller().Config()
	s, ok := sim.SchemeByName(string(tc.Scheme))
	if !ok {
		return nil, fmt.Errorf("ladder: no policy factory for scheme %s", tc.Scheme)
	}
	e.factory = s.Factory
	return e, nil
}

func (e *ladderEngines) memory() (*securemem.Memory, error) {
	return securemem.New(securemem.Config{
		DataBytes: e.pgBytes, Scheme: e.tc.Scheme, Channels: e.tc.Channels,
		MetaCacheBytes: e.tc.MetaCacheBytes, KeySeed: e.tc.KeySeed,
	})
}

// rungRun is one rung's replay of the ladder stream.
type rungRun struct {
	busy    time.Duration // sum of the request spans
	wall    time.Duration
	mallocs uint64
	sigs    []ctrlSig
}

// replay drives a fresh client over ops through r, one span per request
// when traced, checking every answer; any failure ends the ladder.
func (b *bench) replay(name string, parent int32, traced bool, r rung, ops []op, in ladderInput) (rungRun, error) {
	cl := newClient(0, b.opt.seed, ops, in.reqOps, in.tenant.PoolBytes, 0)
	var run rungRun
	// Collect the rung above's garbage now, not during this rung.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := time.Now()
	for j := 0; j < len(ops)/in.reqOps; j++ {
		req := cl.next()
		id := int32(-1)
		if traced {
			id = b.tr.begin(name, parent, int64(j))
		}
		err := r.do(req, cl.got)
		run.busy += b.tr.end(id)
		if err == nil {
			err = cl.check(req)
		}
		b.outcome(len(req), err)
		if err != nil {
			return run, fmt.Errorf("ladder rung %s: %w", name, err)
		}
	}
	run.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	run.mallocs = ms.Mallocs - m0
	return run, nil
}

// ladderRound is one pass over every rung on fresh engines.
type ladderRound struct {
	http, httpUntraced, pool, mem, multi, ctrl rungRun
	readNS, writeNS                            float64
	opsPerBatch                                float64
	ctrls                                      [][]*memctrl.Controller
}

func (b *bench) ladderRound(parent int32, in ladderInput, eng *ladderEngines, routes []route) (*ladderRound, error) {
	n := b.ladderOps()
	ops := in.streams[0][:n]
	cfg := server.Config{Tenants: []server.TenantConfig{in.tenant}}
	lr := &ladderRound{}
	var err error
	withPool := func(f func(*server.Pool) (rungRun, error)) (rungRun, error) {
		p, err := server.NewPool(cfg)
		if err != nil {
			return rungRun{}, err
		}
		defer p.Close()
		run, err := f(p)
		if err != nil {
			return run, err
		}
		run.sigs, err = poolSigs(p)
		return run, err
	}
	overHTTP := func(traced bool) func(*server.Pool) (rungRun, error) {
		return func(p *server.Pool) (rungRun, error) {
			sp, err := startServer(p)
			if err != nil {
				return rungRun{}, err
			}
			defer sp.close()
			h := newHTTPRung(sp.addr)
			defer h.close()
			if err := h.warm(); err != nil {
				return rungRun{}, err
			}
			return b.replay("http", parent, traced, h, ops, in)
		}
	}
	if lr.http, err = withPool(overHTTP(true)); err != nil {
		return nil, err
	}
	if lr.httpUntraced, err = withPool(overHTTP(false)); err != nil {
		return nil, err
	}
	if lr.pool, err = withPool(func(p *server.Pool) (rungRun, error) {
		return b.replay("server", parent, true, &poolRung{p: p}, ops, in)
	}); err != nil {
		return nil, err
	}

	// low replays the ladder stream on a rung below the pool whose
	// controllers are groups.
	low := func(name string, traced bool, groups [][]*memctrl.Controller, apply func(*route, *reqOp) (securemem.Block, error)) (rungRun, error) {
		run, err := b.replay(name, parent, traced, &lowRung{routes: routes, apply: apply}, ops, in)
		run.sigs = ctrlSigs(groups)
		return run, err
	}
	pgs, chans := in.tenant.PGs, in.tenant.Channels
	mems := make([]*securemem.Memory, pgs)
	memCtrls := make([][]*memctrl.Controller, pgs)
	for k := range mems {
		if mems[k], err = eng.memory(); err != nil {
			return nil, err
		}
		memCtrls[k] = mems[k].Controllers()
	}
	if lr.mem, err = low("securemem", true, memCtrls, func(r *route, o *reqOp) (securemem.Block, error) {
		if o.write {
			return securemem.Block{}, mems[r.pg].Write(r.pgLocal, o.data)
		}
		return mems[r.pg].Read(r.pgLocal)
	}); err != nil {
		return nil, err
	}

	systems := make([]*multi.System, pgs)
	sysCtrls := make([][]*memctrl.Controller, pgs)
	for k := range systems {
		systems[k] = multi.New(chans, eng.tmpl, eng.factory, securemem.BlockSize)
		sysCtrls[k] = systems[k].Controllers()
	}
	if lr.multi, err = low("multi", true, sysCtrls, func(r *route, o *reqOp) (securemem.Block, error) {
		if o.write {
			return securemem.Block{}, systems[r.pg].WriteData(1, r.pgLocal, o.data)
		}
		return systems[r.pg].ReadData(1, r.pgLocal)
	}); err != nil {
		return nil, err
	}

	newCtrls := func() [][]*memctrl.Controller {
		cs := make([][]*memctrl.Controller, pgs)
		for k := range cs {
			for j := 0; j < chans; j++ {
				cs[k] = append(cs[k], memctrl.New(eng.tmpl, eng.factory))
			}
		}
		return cs
	}
	lr.ctrls = newCtrls()
	if lr.ctrl, err = low("memctrl", true, lr.ctrls, func(r *route, o *reqOp) (securemem.Block, error) {
		c := lr.ctrls[r.pg][r.ch]
		if o.write {
			return securemem.Block{}, c.WriteData(r.gap, r.chLocal, o.data)
		}
		return c.ReadData(r.gap, r.chLocal)
	}); err != nil {
		return nil, err
	}

	// The memctrl rung once more, with a span per op instead of per
	// request, to split its time by kind.
	split := newCtrls()
	pass := b.tr.begin("memctrl.ops", parent, -1)
	var reads, writes []time.Duration
	perOp, err := low("memctrl (per op)", false, split, func(r *route, o *reqOp) (securemem.Block, error) {
		c := split[r.pg][r.ch]
		req := int64(r.op / in.reqOps)
		if o.write {
			id := b.tr.begin("memctrl.write", pass, req)
			err := c.WriteData(r.gap, r.chLocal, o.data)
			writes = append(writes, b.tr.end(id))
			return securemem.Block{}, err
		}
		id := b.tr.begin("memctrl.read", pass, req)
		blk, err := c.ReadData(r.gap, r.chLocal)
		reads = append(reads, b.tr.end(id))
		return blk, err
	})
	b.tr.end(pass)
	if err != nil {
		return nil, err
	}
	lr.readNS, lr.writeNS = meanNS(reads), meanNS(writes)

	chain := []struct {
		name string
		run  rungRun
	}{
		{"http", lr.http}, {"http (untraced)", lr.httpUntraced}, {"server", lr.pool},
		{"securemem", lr.mem}, {"multi", lr.multi}, {"memctrl", lr.ctrl}, {"memctrl (per op)", perOp},
	}
	for i := 1; i < len(chain); i++ {
		if !reflect.DeepEqual(chain[i-1].run.sigs, chain[i].run.sigs) {
			err := fmt.Errorf("ladder: rungs %s and %s did different simulated work", chain[i-1].name, chain[i].name)
			b.wrongf(err)
			return nil, err
		}
	}

	if lr.opsPerBatch, err = b.concurrentRung(cfg, in); err != nil {
		return nil, err
	}
	return lr, nil
}

func meanNS(d []time.Duration) float64 {
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return ratio(float64(sum.Nanoseconds()), float64(len(d)))
}

// concurrentRung serves every client's ladder prefix at once over HTTP,
// untraced, and returns how many ops the tenant's batcher coalesced per
// engine batch.
func (b *bench) concurrentRung(cfg server.Config, in ladderInput) (float64, error) {
	p, err := server.NewPool(cfg)
	if err != nil {
		return 0, err
	}
	sp, err := startServer(p)
	if err != nil {
		p.Close()
		return 0, err
	}
	defer sp.close()
	n := b.ladderOps()
	errs := make([]error, len(in.streams))
	var wg sync.WaitGroup
	for c := range in.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := newHTTPRung(sp.addr)
			defer h.close()
			cl := newClient(c, b.opt.seed, in.streams[c][:n], in.reqOps, in.tenant.PoolBytes, 0)
			for j := 0; j < n/in.reqOps; j++ {
				if _, err := cl.step(h); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		b.outcome(n, err)
		if err != nil {
			return 0, fmt.Errorf("ladder concurrent rung: %w", err)
		}
	}
	adm := p.Tenant(tenantName).Admission()
	if want := uint64(len(in.streams) * n / in.reqOps); adm.Offered != want || adm.Offered != adm.Accepted+adm.Rejected {
		err := fmt.Errorf("ladder concurrent rung: admission offered %d accepted %d rejected %d, benchmark sent %d",
			adm.Offered, adm.Accepted, adm.Rejected, want)
		b.wrongf(err)
		return 0, err
	}
	return ratio(float64(len(in.streams)*n), float64(adm.Batches)), nil
}

// runLadder runs ladder rounds for half the run's seconds (at least three,
// at most 25; one when quick) and reports each layer's median self time.
func (b *bench) runLadder(in ladderInput) error {
	n := b.ladderOps()
	eng, err := newLadderEngines(in.tenant)
	if err != nil {
		return err
	}
	routes, err := routeOps(in.streams[0][:n], in.tenant.PGs, in.tenant.Channels)
	if err != nil {
		return err
	}
	minRounds, maxRounds := 3, 25
	if b.opt.quick {
		minRounds, maxRounds = 1, 1
	}
	budget := time.Duration(b.opt.seconds / 2 * float64(time.Second))
	perOp := func(r rungRun) float64 { return float64(r.busy.Nanoseconds()) / float64(n) }
	perReq := func(m uint64) float64 { return float64(m) / float64(n/in.reqOps) }
	var (
		httpNS, poolNS, memNS, multiNS, ctrlNS []float64 // per op, each rung
		httpAllocs, poolAllocs                 []float64 // per request, self
		readNS, writeNS, overhead, perBatch    []float64
		last                                   *ladderRound
	)
	start := time.Now()
	for r := 0; r < maxRounds && (r < minRounds || time.Since(start) < budget); r++ {
		id := b.tr.begin("ladder.round", -1, int64(r))
		lr, err := b.ladderRound(id, in, eng, routes)
		b.tr.end(id)
		if err != nil {
			return err
		}
		last = lr
		httpNS = append(httpNS, perOp(lr.http))
		poolNS = append(poolNS, perOp(lr.pool))
		memNS = append(memNS, perOp(lr.mem))
		multiNS = append(multiNS, perOp(lr.multi))
		ctrlNS = append(ctrlNS, perOp(lr.ctrl))
		httpAllocs = append(httpAllocs, perReq(lr.http.mallocs)-perReq(lr.pool.mallocs))
		poolAllocs = append(poolAllocs, perReq(lr.pool.mallocs)-perReq(lr.mem.mallocs))
		readNS = append(readNS, lr.readNS)
		writeNS = append(writeNS, lr.writeNS)
		overhead = append(overhead, float64(lr.http.wall)/float64(lr.httpUntraced.wall))
		perBatch = append(perBatch, lr.opsPerBatch)
	}
	// A self time is the median of per-round differences, so noise common
	// to adjacent rungs of one round cancels.
	self := func(hi, lo []float64) float64 {
		d := make([]float64, len(hi))
		for i := range d {
			d[i] = hi[i] - lo[i]
		}
		return median(d)
	}
	how := fmt.Sprintf("median of %d ladder rounds of %d ops", len(httpNS), n)
	b.set("http.self_ns_per_op", self(httpNS, poolNS), how)
	b.set("server.self_ns_per_op", self(poolNS, memNS), how)
	b.set("securemem.self_ns_per_op", self(memNS, multiNS), how)
	b.set("multi.self_ns_per_op", self(multiNS, ctrlNS), how)
	b.set("http.allocs_per_req", median(httpAllocs), "includes the in-process client's allocations")
	b.set("server.allocs_per_req", median(poolAllocs), how)
	b.set("memctrl.read_ns", median(readNS), how)
	b.set("memctrl.write_ns", median(writeNS), how)
	b.set("bench.trace_overhead", median(overhead), "traced / untraced wall time of the http rung")
	b.set("server.ops_per_batch", median(perBatch), fmt.Sprintf("%d clients at once over HTTP", len(in.streams)))
	for _, r := range []struct {
		name string
		ns   []float64
	}{{"http", httpNS}, {"server", poolNS}, {"securemem", memNS}, {"multi", multiNS}, {"memctrl", ctrlNS}} {
		b.info("ladder rung %-9s %12.1f ns/op", r.name, median(r.ns))
	}
	b.setSimulated(last.ctrls)
	return nil
}

// setSimulated reports the memctrl, cache and nvmem counters of the
// ladder's memctrl rung: simulated, and exact for a given seed.
func (b *bench) setSimulated(groups [][]*memctrl.Controller) {
	var st memctrl.Stats
	var cs cache.Stats
	var nv nvmem.Stats
	var exec uint64
	for _, g := range groups {
		for _, c := range g {
			s := c.Stats()
			st.Merge(&s)
			cs.Merge(c.Meta().Stats())
			d := c.Device().Stats()
			nv.Merge(&d)
			exec = max(exec, c.ExecCycles())
		}
	}
	ops := float64(st.DataReads + st.DataWrites)
	per := func(v uint64) float64 { return ratio(float64(v), ops) }
	how := "simulated, exact"
	b.set("memctrl.avg_read_cycles", st.AvgReadLatency(), how)
	b.set("memctrl.avg_write_cycles", st.AvgWriteLatency(), how)
	b.set("memctrl.exec_cycles", float64(exec), how)
	b.set("memctrl.hash_ops_per_op", per(st.HashOps), how)
	b.set("memctrl.aes_ops_per_op", per(st.AESOps), how)
	b.set("memctrl.overflows_per_kop", 1000*per(st.Overflows), how)
	b.set("cache.hit_rate", cs.HitRate(), how)
	b.set("cache.dirty_evictions_per_op", per(cs.DirtyEvictions), how)
	b.set("nvmem.reads_per_op", per(nv.TotalReads()), how)
	b.set("nvmem.writes_per_op", per(nv.TotalWrites()), how)
	b.set("nvmem.write_amp", ratio(float64(nv.WriteBytes()), float64(st.DataWrites*securemem.BlockSize)), how+": NVM bytes written / user bytes written")
	b.set("nvmem.meta_writes_per_op", per(nv.Writes[nvmem.ClassMeta]), how)
	b.set("nvmem.record_writes_per_op", per(nv.Writes[nvmem.ClassRecord]), how)
	b.set("nvmem.stall_cycles_per_op", per(nv.StallCycles), how)
}

// traceRun is the traced run: the layer ladder for the serving layers, the
// simulator rung for the simulator and the restart chain for the snapshot
// and recovery layers, then the spans are written out. The benchmark
// contract asks every traced run for every per-layer metric, so each
// instrument runs on this workload when it has those layers and otherwise
// on a fresh set-up of the workload that does.
func (b *bench) traceRun(inst instance) error {
	b.set("trace.gen_ns_per_op", median(b.genNS), fmt.Sprintf("stream generation at set-up, median of %d", len(b.genNS)))
	srv, done, err := layerOwner[*serveInstance](b, inst, setupPoint)
	if err != nil {
		return err
	}
	err = b.runLadder(srv.ladder())
	done()
	if err != nil {
		return err
	}
	sw, done, err := layerOwner[*simInstance](b, inst, setupSim)
	if err != nil {
		return err
	}
	err = b.simRung(sw.simInput())
	done()
	if err != nil {
		return err
	}
	rst, done, err := layerOwner[*restartInstance](b, inst, setupRestart)
	if err != nil {
		return err
	}
	err = b.restartChain(rst.img)
	done()
	if err != nil {
		return err
	}
	path := filepath.Join(b.opt.workdir, "spans-"+b.opt.workload+".jsonl")
	if err := b.tr.writeFile(path); err != nil {
		return err
	}
	b.info("spans: %d written to %s", len(b.tr.spans), path)
	return nil
}

// layerOwner returns inst if it is a T, the workload that has the layers
// an instrument needs, and otherwise sets up that workload with setup. done
// closes what layerOwner set up.
func layerOwner[T instance](b *bench, inst instance, setup func(*bench) (instance, error)) (own T, done func(), err error) {
	if own, ok := inst.(T); ok {
		return own, func() {}, nil
	}
	ref, err := setup(b)
	if err != nil {
		return own, nil, fmt.Errorf("set-up for the traced layers: %w", err)
	}
	return ref.(T), ref.close, nil
}
