package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"steins/internal/server"
	"steins/internal/trace"
	"steins/securemem"
)

// serveSpec fixes one served workload: the tenant, the request shape and
// one client's access mix.
type serveSpec struct {
	tenant    server.TenantConfig
	reqOps    int           // 1: single-block PUT/GET; more: POST /batch
	prof      trace.Profile // one client's share of the pool
	streamOps int           // pregenerated ops per client (replayed cyclically)
}

// steinsTenant is the tenant shape the serving and restart workloads share:
// Steins-SC over 2 placement groups × 2 channels, line interleave.
func steinsTenant(seed, poolBytes uint64, cacheBytes int) server.TenantConfig {
	return server.TenantConfig{
		Name: tenantName, Scheme: securemem.SteinsSC, PGs: 2, Channels: 2,
		PoolBytes: poolBytes, MetaCacheBytes: cacheBytes, KeySeed: seed,
	}
}

func profile(name string, footprint uint64) trace.Profile {
	p, ok := trace.ByName(name)
	if !ok {
		panic("bench: unknown trace profile " + name)
	}
	p.FootprintBytes = footprint
	return p
}

func setupPoint(b *bench) (instance, error) {
	pool, ops := uint64(4<<20), 1<<18
	if b.opt.quick {
		pool, ops = 256<<10, 1<<12
	}
	return setupServe(b, serveSpec{
		tenant: steinsTenant(b.opt.seed, pool, 0),
		reqOps: 1,
		// kv_a_zipf: YCSB-A-like, 50% writes, zipf 0.99.
		prof:      profile("kv_a_zipf", pool/clients),
		streamOps: ops,
	})
}

func setupBatch(b *bench) (instance, error) {
	pool, ops := uint64(16<<20), 1<<20
	if b.opt.quick {
		pool, ops = 1<<20, 1<<14
	}
	return setupServe(b, serveSpec{
		tenant: steinsTenant(b.opt.seed, pool, 16<<10),
		reqOps: 64,
		prof: trace.Profile{Name: "uniform_r95", FootprintBytes: pool / clients,
			WriteFrac: 0.05, GapMean: 300, Pattern: trace.Uniform},
		streamOps: ops,
	})
}

// serveInstance is a prefilled pool behind a loopback HTTP server plus the
// clients' pregenerated streams.
type serveInstance struct {
	spec        serveSpec
	streams     [][]op
	sp          *servePool
	prefillReqs uint64
}

func setupServe(b *bench, spec serveSpec) (instance, error) {
	t0 := time.Now()
	streams := clientStreams(spec.prof, b.opt.seed, spec.streamOps)
	b.genNS = append(b.genNS, float64(time.Since(t0).Nanoseconds())/float64(clients*spec.streamOps))
	pool, err := server.NewPool(server.Config{Tenants: []server.TenantConfig{spec.tenant}})
	if err != nil {
		return nil, err
	}
	reqs, err := prefill(pool, b.opt.seed, spec.tenant.PoolBytes)
	if err != nil {
		pool.Close()
		return nil, err
	}
	sp, err := startServer(pool)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &serveInstance{spec: spec, streams: streams, sp: sp, prefillReqs: reqs}, nil
}

func (s *serveInstance) close() { s.sp.close() }

// clientLoad is what one serving client measured.
type clientLoad struct {
	// lat is the latency of every request issued after the warm-up, in
	// tenths of a microsecond so that a long run's samples stay a small
	// part of the heap (rss_peak_mib is a metric): [0] holds reads and
	// batches, [1] single-block writes.
	lat       [2][]uint32
	measured  uint64    // ops of requests issued after the warm-up
	lastEnd   time.Time // completion of the last of those
	requests  uint64    // issued, warm-up included
	ops       uint64
	failedOps uint64
	err       error // the first failure or wrong answer; the client stops there
}

// drive runs one closed-loop client on r until the deadline, which starts
// at the end of the warm-up and counts the samples of every client. It
// records the latency and ops of every request issued after the warm-up.
func drive(cl *client, r rung, d deadline, samples *atomic.Int64) *clientLoad {
	l := &clientLoad{}
	warmEnd := d.start
	for {
		if d.done(int(samples.Load())) {
			return l
		}
		t0 := time.Now()
		req, err := cl.step(r)
		t1 := time.Now()
		l.requests++
		l.ops += uint64(len(req))
		if err != nil {
			if errors.Is(err, errFailed) {
				l.failedOps += uint64(len(req))
			}
			l.err = err
			return l
		}
		if t0.Before(warmEnd) {
			continue
		}
		kind := 0
		if len(req) == 1 && req[0].write {
			kind = 1
		}
		l.lat[kind] = append(l.lat[kind], uint32(min(t1.Sub(t0)/100, math.MaxUint32)))
		samples.Add(1)
		l.measured += uint64(len(req))
		l.lastEnd = t1
	}
}

// measure runs the clients over HTTP for the warm-up plus the run's
// seconds and reports throughput, latency and the admission cross-check.
func (s *serveInstance) measure(b *bench) error {
	tenant := s.sp.pool.Tenant(tenantName)
	cls := make([]*client, clients)
	rungs := make([]*httpRung, clients)
	for c := range cls {
		cls[c] = newClient(c, b.opt.seed, s.streams[c], s.spec.reqOps, s.spec.tenant.PoolBytes, 1)
		rungs[c] = newHTTPRung(s.sp.addr)
		defer rungs[c].close()
	}
	if b.sabotage {
		// Point the expectation of the first read of a line no earlier op
		// writes at a version that was never written.
		written := map[uint64]bool{}
		for _, o := range s.streams[0] {
			if o.write() {
				written[o.line()] = true
			} else if !written[o.line()] {
				cls[0].shadow[o.line()/clients] += 1 << 30
				break
			}
		}
	}
	before := tenant.Admission()
	d := b.deadline()
	d.start = d.start.Add(b.warmup())
	var samples atomic.Int64
	loads := make([]*clientLoad, clients)
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loads[c] = drive(cls[c], rungs[c], d, &samples)
		}(c)
	}
	wg.Wait()

	var lat [2][]uint32
	var requests, ops, measured uint64
	end := d.start
	for _, l := range loads {
		b.attempted += l.ops
		b.failed += l.failedOps
		if l.err != nil {
			b.wrongf(l.err)
		}
		requests += l.requests
		ops += l.ops
		lat[0] = append(lat[0], l.lat[0]...)
		lat[1] = append(lat[1], l.lat[1]...)
		measured += l.measured
		if l.lastEnd.After(end) {
			end = l.lastEnd
		}
	}

	// Every request the benchmark sent — the prefill's and the clients' —
	// must be in the server's admission ledger, and the ledger must close.
	adm := tenant.Admission()
	if want := s.prefillReqs + requests; adm.Offered != want {
		b.wrongf(fmt.Errorf("admission: server offered %d requests, benchmark sent %d", adm.Offered, want))
	}
	if adm.Offered != adm.Accepted+adm.Rejected {
		b.wrongf(fmt.Errorf("admission: offered %d != accepted %d + rejected %d", adm.Offered, adm.Accepted, adm.Rejected))
	}

	window := end.Sub(d.start)
	b.set("ops_s", ratio(float64(measured), window.Seconds()), fmt.Sprintf("%d ops in %v, %d clients", measured, window.Round(time.Millisecond), clients))
	all := sortedTenths(lat[0], lat[1])
	if err := setLatency(b, all, 0.1, "requests"); err != nil {
		return err
	}
	if s.spec.reqOps == 1 {
		infoPercentiles(b, "read", sortedTenths(lat[0]), 0.1)
		infoPercentiles(b, "write", sortedTenths(lat[1]), 0.1)
	} else {
		infoPercentiles(b, "batch", all, 0.1)
	}
	b.info("failed_frac %.6f (%d of %d ops)", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	b.info("server ops_per_batch %.3f over the run, in-flight high-water mark %d, rejected %d",
		ratio(float64(ops), float64(adm.Batches-before.Batches)), adm.InFlightHWM, adm.Rejected)
	return nil
}

// ladder is the layer ladder's input: this workload's tenant, request
// shape and client streams.
func (s *serveInstance) ladder() ladderInput {
	return ladderInput{tenant: s.spec.tenant, reqOps: s.spec.reqOps, streams: s.streams}
}
