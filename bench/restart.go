package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"steins/internal/server"
	"steins/internal/snapshot"
	"steins/securemem"
)

// restartImage is a checkpoint file, the configuration a restarting
// daemon builds its pool from, and what every address must read back as.
type restartImage struct {
	path   string
	cfg    server.Config
	mib    float64
	lines  uint64
	expect func(addr uint64) securemem.Block
}

func newRestartImage(path string, tc server.TenantConfig, expect func(uint64) securemem.Block) (*restartImage, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &restartImage{
		path:   path,
		cfg:    server.Config{Tenants: []server.TenantConfig{tc}},
		mib:    float64(fi.Size()) / (1 << 20),
		lines:  tc.PoolBytes / securemem.BlockSize,
		expect: expect,
	}, nil
}

// restartSteps is one timed restart.
type restartSteps struct {
	load, newPool, restore, recover, total time.Duration
	rec                                    server.TenantRecovery
}

// restart runs one daemon restart from img in the order securememd starts
// with -state: LoadServerFile, NewPool, RestoreState, CrashRecoverAll. It
// returns the serving pool for the caller to verify and close.
func (b *bench) restart(img *restartImage, idx int64) (restartSteps, *server.Pool, error) {
	var s restartSteps
	root := b.tr.begin("restart", -1, idx)
	defer b.tr.end(root)
	t0 := time.Now()
	sp := b.tr.begin("snapshot.load", root, idx)
	st, err := snapshot.LoadServerFile(img.path)
	b.tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return s, nil, err
	}
	sp = b.tr.begin("server.newpool", root, idx)
	pool, err := server.NewPool(img.cfg)
	b.tr.end(sp)
	t2 := time.Now()
	if err != nil {
		return s, nil, err
	}
	sp = b.tr.begin("server.restore", root, idx)
	err = pool.RestoreState(st)
	b.tr.end(sp)
	t3 := time.Now()
	if err != nil {
		pool.Close()
		return s, nil, err
	}
	sp = b.tr.begin("server.crash_recover", root, idx)
	recs := pool.CrashRecoverAll()
	b.tr.end(sp)
	t4 := time.Now()
	s = restartSteps{load: t1.Sub(t0), newPool: t2.Sub(t1), restore: t3.Sub(t2), recover: t4.Sub(t3), total: t4.Sub(t0)}
	if len(recs) != 1 || !recs[0].Recovered {
		pool.Close()
		return s, nil, fmt.Errorf("restart %d: tenant not recovered: %+v", idx, recs)
	}
	s.rec = recs[0]
	return s, pool, nil
}

// verifyRestart reads back every address of the image (full) or 256
// seeded samples through Pool.Do and checks each against the image.
func (b *bench) verifyRestart(pool *server.Pool, img *restartImage, full bool, idx int64) {
	var addrs []uint64
	if full {
		addrs = make([]uint64, img.lines)
		for i := range addrs {
			addrs[i] = uint64(i) * securemem.BlockSize
		}
	} else {
		x := b.opt.seed ^ uint64(idx)<<32
		for i := 0; i < 256; i++ {
			x = splitmix(x)
			addrs = append(addrs, x%img.lines*securemem.BlockSize)
		}
	}
	const per = 128
	pr := &poolRung{p: pool}
	req := make([]reqOp, 0, per)
	got := make([]securemem.Block, per)
	for len(addrs) > 0 {
		n := min(per, len(addrs))
		req = req[:0]
		for _, a := range addrs[:n] {
			req = append(req, reqOp{addr: a})
		}
		addrs = addrs[n:]
		err := pr.do(req, got)
		b.outcome(n, err)
		if err != nil {
			return
		}
		for i := range req {
			if got[i] != img.expect(req[i].addr) {
				b.wrongf(fmt.Errorf("restart %d: %#x read back different data than was checkpointed", idx, req[i].addr))
			}
		}
	}
}

// restartLoop restarts from img until done says stop, verifying every
// restart: all addresses after the first and the last, samples otherwise.
// Verification is not part of any restart's time.
func (b *bench) restartLoop(img *restartImage, done func(n int) bool) ([]restartSteps, error) {
	var out []restartSteps
	for i := int64(0); ; i++ {
		s, pool, err := b.restart(img, i)
		if err != nil {
			return out, err
		}
		out = append(out, s)
		last := done(len(out))
		b.verifyRestart(pool, img, i == 0 || last, i)
		pool.Close()
		if last {
			return out, nil
		}
	}
}

// restartInstance is a checkpointed tenant: prefilled, then driven with a
// kv_a_zipf mix so the metadata cache holds a realistic dirty set.
type restartInstance struct {
	img *restartImage
}

func setupRestart(b *bench) (instance, error) {
	poolBytes, mix := uint64(4<<20), 1<<15
	if b.opt.quick {
		poolBytes, mix = 128<<10, 1<<10
	}
	tc := steinsTenant(b.opt.seed, poolBytes, 0)
	t0 := time.Now()
	streams := clientStreams(profile("kv_a_zipf", poolBytes/clients), b.opt.seed, mix)
	b.genNS = append(b.genNS, float64(time.Since(t0).Nanoseconds())/float64(clients*mix))
	pool, err := server.NewPool(server.Config{Tenants: []server.TenantConfig{tc}})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	if _, err := prefill(pool, b.opt.seed, poolBytes); err != nil {
		return nil, err
	}
	const per = 128
	cls := make([]*client, clients)
	for c := range cls {
		cls[c] = newClient(c, b.opt.seed, streams[c], per, poolBytes, 1)
		pr := &poolRung{p: pool}
		for i := 0; i < mix/per; i++ {
			if _, err := cls[c].step(pr); err != nil {
				return nil, fmt.Errorf("mix: %w", err)
			}
		}
	}
	st, err := pool.State()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(b.opt.workdir, "restart.ckpt")
	if err := snapshot.SaveServerFile(path, st); err != nil {
		return nil, err
	}
	seed := b.opt.seed
	img, err := newRestartImage(path, tc, func(addr uint64) securemem.Block {
		line := addr / securemem.BlockSize
		return blockFor(seed, addr, cls[line%clients].shadow[line/clients])
	})
	if err != nil {
		return nil, err
	}
	return &restartInstance{img: img}, nil
}

func (r *restartInstance) close() {}

func (r *restartInstance) measure(b *bench) error {
	d := b.deadline()
	steps, err := b.restartLoop(r.img, d.done)
	b.attempted += uint64(len(steps))
	if err != nil {
		return err
	}
	totals := make([]time.Duration, len(steps))
	var down time.Duration
	for i, s := range steps {
		totals[i] = s.total
		down += s.total
	}
	b.set("ops_s", float64(uint64(len(steps))*r.img.lines)/down.Seconds(),
		fmt.Sprintf("64 B blocks back in service per second of downtime, %d restarts", len(steps)))
	us := micros(totals)
	if err := setLatency(b, us, 1, "restarts"); err != nil {
		return err
	}
	infoPercentiles(b, "restart", us, 1)
	med := stepMedianMS(steps)
	b.info("restart steps (median ms): load %.2f, newpool %.2f, restore %.2f, crash_recover %.2f", med[0], med[1], med[2], med[3])
	rec := steps[len(steps)-1].rec
	b.info("recovery: %d nodes, %d NVM reads, %d MACs, %.3f ms simulated", rec.NodesRecovered, rec.NVMReads, rec.MACOps, rec.SimulatedNS/1e6)
	return nil
}

// stepMedianMS returns the median load, newpool, restore and
// crash-recover times in milliseconds.
func stepMedianMS(steps []restartSteps) [4]float64 {
	var cols [4][]float64
	for _, s := range steps {
		for k, d := range []time.Duration{s.load, s.newPool, s.restore, s.recover} {
			cols[k] = append(cols[k], float64(d)/float64(time.Millisecond))
		}
	}
	var out [4]float64
	for k := range cols {
		out[k] = median(cols[k])
	}
	return out
}

// restartChain is the traced restart: a few restarts of img with a span
// per step, checked to add up to each restart's wall time.
func (b *bench) restartChain(img *restartImage) error {
	n := 5
	if b.opt.quick {
		n = 2
	}
	steps, err := b.restartLoop(img, func(k int) bool { return k >= n })
	if err != nil {
		return err
	}
	for id, s := range b.tr.spans {
		if s.Name != "restart" {
			continue
		}
		var sum time.Duration
		for _, c := range b.tr.children(int32(id)) {
			sum += c.dur()
		}
		if gap := s.dur() - sum; gap < 0 || gap > s.dur()/100 {
			b.wrongf(fmt.Errorf("restart %d: steps add up to %v of its %v wall time", s.Req, sum, s.dur()))
		}
	}
	med := stepMedianMS(steps)
	b.set("snapshot.load_ms", med[0], fmt.Sprintf("median of %d restarts", n))
	b.set("snapshot.image_mib", img.mib, "checkpoint file size")
	b.set("server.newpool_ms", med[1], "")
	b.set("server.restore_ms", med[2], "")
	b.set("server.crash_recover_ms", med[3], "")
	rec := steps[len(steps)-1].rec
	b.set("recover.nodes", float64(rec.NodesRecovered), "simulated, exact")
	b.set("recover.nvm_reads", float64(rec.NVMReads), "simulated, exact")
	b.set("recover.mac_ops", float64(rec.MACOps), "simulated, exact")
	b.set("recover.simulated_ms", rec.SimulatedNS/1e6, "simulated, exact")
	return nil
}
