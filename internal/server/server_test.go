package server

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/snapshot"
	"steins/securemem"
)

// replayLog drives the linearized request log through a single-threaded
// reference (a plain map of last-written blocks, zero for never-written
// addresses) and fails if any served read disagrees with it. It returns
// the reference's final image.
func replayLog(t *testing.T, log []LogRecord) map[uint64]securemem.Block {
	t.Helper()
	ref := map[uint64]securemem.Block{}
	for i, rec := range log {
		if rec.Seq != uint64(i) {
			t.Fatalf("log[%d] has seq %d: log is not the dense linearization", i, rec.Seq)
		}
		if rec.Err != "" {
			t.Fatalf("log[%d] (addr %#x) carries engine error %q", i, rec.Addr, rec.Err)
		}
		if rec.IsWrite {
			ref[rec.Addr] = rec.Data
			continue
		}
		if want := ref[rec.Addr]; rec.Data != want {
			t.Fatalf("seq %d: read of %#x served %x…, reference says %x…",
				rec.Seq, rec.Addr, rec.Data[:4], want[:4])
		}
	}
	return ref
}

// TestServedPathLinearizesConcurrentClients is the headline differential
// harness: N concurrent clients fire mixed read/write requests at a
// tenant; afterwards the recorded (linearized) log must replay cleanly on
// a single-threaded reference — every read served exactly the bytes the
// linearization implies — and the final readback must be byte-equal to
// the reference image. Run under -race and -cpu 1,4,8 (make serve-check).
func TestServedPathLinearizesConcurrentClients(t *testing.T) {
	cases := []struct {
		name string
		tc   TenantConfig
	}{
		{"line-3pg-2ch", TenantConfig{Name: "alpha", Scheme: securemem.SteinsSC, PGs: 3,
			PoolBytes: 3 * 64 * 64, Channels: 2, Interleave: "line", BatchOps: 16}},
		{"page-2pg", TenantConfig{Name: "alpha", Scheme: securemem.SCUEGC, PGs: 2,
			PoolBytes: 4 * 4096, Interleave: "page", BatchOps: 24}},
		{"hash-4pg", TenantConfig{Name: "alpha", Scheme: securemem.TriadSC, PGs: 4,
			PoolBytes: 128 * 64, Interleave: "hash", BatchOps: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(Config{Tenants: []TenantConfig{tc.tc}, RecordLog: true})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			const clients = 8
			const requests = 40
			blocks := tc.tc.PoolBytes / securemem.BlockSize
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000*g + 7)))
					for i := 0; i < requests; i++ {
						specs := make([]OpSpec, 1+rng.Intn(4))
						for j := range specs {
							addr := uint64(rng.Intn(int(blocks))) * securemem.BlockSize
							specs[j].Addr = addr
							if rng.Intn(3) > 0 { // write-heavy mix
								specs[j].IsWrite = true
								specs[j].Data[0] = byte(g)
								specs[j].Data[1] = byte(i)
								specs[j].Data[2] = byte(j)
								specs[j].Data[63] = byte(addr / securemem.BlockSize)
							}
						}
						for {
							ops, aerr := p.Do("alpha", specs)
							if aerr == nil {
								for k := range ops {
									if ops[k].Err != nil {
										t.Errorf("client %d op: %v", g, ops[k].Err)
									}
								}
								break
							}
							if aerr.Status != 429 {
								t.Errorf("client %d rejected: %v", g, aerr)
								break
							}
							// Admission pushback: retry, it is part of the model.
						}
					}
				}(g)
			}
			wg.Wait()

			tn := p.Tenant("alpha")
			tn.waitIdle()
			ref := replayLog(t, tn.Log())

			// Final readback must be byte-equal to the reference image at
			// every address the run touched (plus one never-written block).
			for addr, want := range ref {
				ops, aerr := p.Do("alpha", []OpSpec{{Addr: addr}})
				if aerr != nil {
					t.Fatalf("readback %#x: %v", addr, aerr)
				}
				if ops[0].Err != nil {
					t.Fatalf("readback %#x: %v", addr, ops[0].Err)
				}
				if ops[0].Data != want {
					t.Fatalf("readback %#x: served %x…, reference %x…", addr, ops[0].Data[:4], want[:4])
				}
			}
			adm := tn.Admission()
			if adm.Offered != adm.Accepted+adm.Rejected {
				t.Fatalf("admission ledger leaks: offered %d != accepted %d + rejected %d",
					adm.Offered, adm.Accepted, adm.Rejected)
			}
			if adm.Batches == 0 {
				t.Fatal("no batches applied — the coalescing path never ran")
			}
		})
	}
}

// TestCrashMidServeRecovery kills the pool between batches — concurrent
// clients quiesce, the drained checkpoint is saved, the process "dies" —
// then a fresh pool restores the checkpoint, crash-recovers every
// placement group, and must serve back the exact golden shadow the first
// life's linearized log implies. A WB tenant rides along to pin that an
// unrecoverable scheme reports ErrNoRecovery instead of pretending.
func TestCrashMidServeRecovery(t *testing.T) {
	cfg := Config{
		RecordLog: true,
		Tenants: []TenantConfig{
			{Name: "alpha", Scheme: securemem.SteinsSC, PGs: 2, PoolBytes: 2 * 64 * 64,
				Channels: 2, Interleave: "line", BatchOps: 8},
			{Name: "wb", Scheme: securemem.WBGC, PGs: 1, PoolBytes: 32 * 64},
		},
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 42)))
			for i := 0; i < 30; i++ {
				var spec OpSpec
				spec.Addr = uint64(rng.Intn(128)) * securemem.BlockSize
				spec.IsWrite = true
				spec.Data[0], spec.Data[1] = byte(g+1), byte(i)
				for {
					if _, aerr := p.Do("alpha", []OpSpec{spec}); aerr == nil || aerr.Status != 429 {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	p.Tenant("alpha").waitIdle()

	golden := replayLog(t, p.Tenant("alpha").Log())
	img, err := p.StateBytes()
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // the old process is gone

	// Restart: fresh pool, restore, model the outage, recover.
	p2, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	st, err := snapshot.DecodeServer(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	reps := p2.CrashRecoverAll()
	if len(reps) != 2 {
		t.Fatalf("got %d recovery reports, want 2", len(reps))
	}
	if !reps[0].Recovered || reps[0].Tenant != "alpha" {
		t.Fatalf("alpha did not recover: %+v", reps[0])
	}
	if reps[0].NodesRecovered == 0 || reps[0].SimulatedNS == 0 {
		t.Fatalf("alpha recovery reports no work: %+v", reps[0])
	}
	if reps[1].Recovered || !errors.Is(reps[1].RecoverErr, securemem.ErrNoRecovery) {
		t.Fatalf("wb tenant must fail with ErrNoRecovery, got %+v", reps[1])
	}
	if rec := p2.Tenant("wb").Recovery(); rec == nil || rec.Recovered {
		t.Fatalf("wb recovery endpoint state wrong: %+v", rec)
	}

	// Re-verify the second life against the first life's golden shadow.
	for addr, want := range golden {
		ops, aerr := p2.Do("alpha", []OpSpec{{Addr: addr}})
		if aerr != nil || ops[0].Err != nil {
			t.Fatalf("post-recovery read %#x: %v / %v", addr, aerr, ops[0].Err)
		}
		if ops[0].Data != want {
			t.Fatalf("post-recovery read %#x: got %x…, golden %x…", addr, ops[0].Data[:4], want[:4])
		}
	}
}

// TestRestoreShapeMismatch pins the structured rejection of checkpoints
// that do not match the restarting server's configuration.
func TestRestoreShapeMismatch(t *testing.T) {
	mk := func(tc TenantConfig) *Pool {
		p, err := NewPool(Config{Tenants: []TenantConfig{tc}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	src := mk(TenantConfig{Name: "a", Scheme: securemem.SteinsSC, PGs: 2, PoolBytes: 2 * 64 * 64})
	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	for name, dst := range map[string]*Pool{
		"wrong-name":   mk(TenantConfig{Name: "b", Scheme: securemem.SteinsSC, PGs: 2, PoolBytes: 2 * 64 * 64}),
		"wrong-scheme": mk(TenantConfig{Name: "a", Scheme: securemem.SCUESC, PGs: 2, PoolBytes: 2 * 64 * 64}),
		"wrong-pgs":    mk(TenantConfig{Name: "a", Scheme: securemem.SteinsSC, PGs: 4, PoolBytes: 4 * 64 * 64}),
		"wrong-channels": mk(TenantConfig{Name: "a", Scheme: securemem.SteinsSC, PGs: 2,
			PoolBytes: 2 * 64 * 64, Channels: 2}),
	} {
		if err := dst.RestoreState(st); err == nil {
			t.Errorf("%s: restore accepted a mismatched checkpoint", name)
		}
	}
}

// TestRestoreRejectsCorruptTables pins that a shape-matching checkpoint
// whose controller tables are inconsistent, or of another layout, is
// refused as snapshot.ErrCorrupt instead of panicking or restoring a
// partial device.
func TestRestoreRejectsCorruptTables(t *testing.T) {
	cfg := Config{Tenants: []TenantConfig{{Name: "a", Scheme: securemem.SteinsSC, PGs: 1, PoolBytes: 64 * 64}}}
	src, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, aerr := src.Do("a", []OpSpec{{Addr: 64, IsWrite: true, Data: [64]byte{1}}}); aerr != nil {
		t.Fatal(aerr)
	}
	for name, breakIt := range map[string]func(c *memctrl.ControllerState){
		"line data":  func(c *memctrl.ControllerState) { c.Device.LineData = c.Device.LineData[1:] },
		"wear":       func(c *memctrl.ControllerState) { c.Device.WearCounts = nil },
		"tag hints":  func(c *memctrl.ControllerState) { c.TagHints = nil },
		"old layout": func(c *memctrl.ControllerState) { c.Layout = 0 },
	} {
		st, err := src.State()
		if err != nil {
			t.Fatal(err)
		}
		breakIt(&st.Tenants[0].PGs[0].Channels[0])
		dst, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreState(st); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: RestoreState = %v, want ErrCorrupt", name, err)
		}
		dst.Close()
	}
}

// TestAdmissionControlProperty pins the admission-control contract:
// accepted + rejected == offered, the in-flight high-water mark never
// exceeds the configured bound, and a rejected request never mutates
// engine state (byte-compared checkpoints around a rejection storm with
// the batcher paused, so admission alone is observable).
func TestAdmissionControlProperty(t *testing.T) {
	const bound = 4
	cfg := Config{Tenants: []TenantConfig{{
		Name: "alpha", Scheme: securemem.SteinsGC, PGs: 2, PoolBytes: 2 * 64 * 64,
		MaxInFlight: bound, MaxQueuedOps: 8, BatchOps: 4,
	}}}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tn := p.Tenant("alpha")

	// engineImage is the pool's engine state alone: the checkpoint with
	// the admission-side linearization cursor masked out (admitting a
	// request legitimately advances AppliedSeq without touching engines).
	engineImage := func() []byte {
		st, err := p.State()
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.Tenants {
			st.Tenants[i].AppliedSeq = 0
		}
		img, err := snapshot.EncodeServer(st)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	// Phase 1: pause the batcher so nothing applies, then offer far more
	// than the bounds admit. Engine state before and after must be
	// byte-identical: neither rejection nor queueing touches an engine.
	before := engineImage()
	tn.setPaused(true)
	const storm = 64
	var mu sync.Mutex
	var admitted []*request
	var wg sync.WaitGroup
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := OpSpec{IsWrite: true, Addr: uint64(g%64) * securemem.BlockSize}
			spec.Data[0] = byte(g)
			req, aerr := tn.submit([]OpSpec{spec}, false)
			if aerr != nil {
				if aerr.Status != 429 {
					t.Errorf("unexpected rejection: %+v", aerr)
				}
				return
			}
			mu.Lock()
			admitted = append(admitted, req)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	// A test failure past this point must not strand the admitted slots:
	// Drain (via the deferred Close) waits for in-flight to hit zero.
	released := false
	releaseAll := func() {
		if released {
			return
		}
		released = true
		tn.setPaused(false)
		for _, req := range admitted {
			<-req.done
			tn.release()
		}
	}
	defer releaseAll()
	after := engineImage()
	if !bytes.Equal(before, after) {
		t.Fatal("rejected/queued requests mutated engine state while the batcher was paused")
	}
	adm := tn.Admission()
	if adm.Offered != storm {
		t.Fatalf("offered = %d, want %d", adm.Offered, storm)
	}
	if adm.Offered != adm.Accepted+adm.Rejected {
		t.Fatalf("ledger: offered %d != accepted %d + rejected %d", adm.Offered, adm.Accepted, adm.Rejected)
	}
	if adm.Rejected == 0 || adm.RejectedInFlight == 0 {
		t.Fatalf("a %d-request storm against bound %d must reject: %+v", storm, bound, adm)
	}
	if int(adm.Accepted) != len(admitted) {
		t.Fatalf("accepted %d but %d requests got through", adm.Accepted, len(admitted))
	}

	// Let the queued work apply and return the slots.
	releaseAll()
	for _, req := range admitted {
		for i := range req.ops {
			if req.ops[i].err != nil {
				t.Fatalf("admitted op failed: %v", req.ops[i].err)
			}
		}
	}
	tn.waitIdle()

	// Phase 2: a live concurrent run through the public path; the ledger
	// and the bound must hold under real interleaving too.
	var accepted, rejected uint64
	var cmu sync.Mutex
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				spec := OpSpec{IsWrite: true, Addr: uint64((g*25+i)%128) * securemem.BlockSize}
				spec.Data[0] = byte(g)
				_, aerr := p.Do("alpha", []OpSpec{spec})
				cmu.Lock()
				if aerr == nil {
					accepted++
				} else if aerr.Status == 429 {
					rejected++
				} else {
					t.Errorf("unexpected error: %+v", aerr)
				}
				cmu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	tn.waitIdle()
	adm2 := tn.Admission()
	if adm2.InFlightHWM > bound {
		t.Fatalf("in-flight high-water mark %d exceeds bound %d", adm2.InFlightHWM, bound)
	}
	wantOffered := adm.Offered + accepted + rejected
	if adm2.Offered != wantOffered {
		t.Fatalf("offered = %d, want %d (client-side ledger)", adm2.Offered, wantOffered)
	}
	if adm2.Offered != adm2.Accepted+adm2.Rejected {
		t.Fatalf("ledger: offered %d != accepted %d + rejected %d",
			adm2.Offered, adm2.Accepted, adm2.Rejected)
	}
	if adm2.Accepted != adm.Accepted+accepted {
		t.Fatalf("accepted = %d, want %d", adm2.Accepted, adm.Accepted+accepted)
	}
}

// TestDrainRejectsAndQuiesces pins the SIGTERM path: during and after
// Drain new requests bounce with 503, while everything admitted before
// the drain completes and is checkpointable.
func TestDrainRejectsAndQuiesces(t *testing.T) {
	p, err := NewPool(Config{Tenants: []TenantConfig{{
		Name: "alpha", Scheme: securemem.ASIT, PoolBytes: 64 * 64,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				spec := OpSpec{IsWrite: true, Addr: uint64((g*20+i)%64) * securemem.BlockSize}
				spec.Data[0] = byte(g + 1)
				p.Do("alpha", []OpSpec{spec}) // 503s after drain starts are expected
			}
		}(g)
	}
	wg.Wait()
	p.Drain()
	if _, aerr := p.Do("alpha", []OpSpec{{Addr: 0}}); aerr == nil || aerr.Status != 503 {
		t.Fatalf("post-drain request: got %+v, want 503", aerr)
	}
	if _, err := p.StateBytes(); err != nil {
		t.Fatalf("drained pool must checkpoint: %v", err)
	}
	adm := p.Tenant("alpha").Admission()
	if adm.QueueDepth != 0 || adm.InFlight != 0 {
		t.Fatalf("drained pool not quiesced: %+v", adm)
	}
	if adm.Offered != adm.Accepted+adm.Rejected {
		t.Fatalf("ledger: %+v", adm)
	}
}

// TestPoolConfigErrors pins the structured *ConfigError shape for the
// specs NewPool must reject.
func TestPoolConfigErrors(t *testing.T) {
	base := TenantConfig{Name: "a", Scheme: securemem.SteinsSC, PoolBytes: 64 * 64}
	cases := []struct {
		name   string
		mut    func(*Config)
		tenant string
		field  string
	}{
		{"no-tenants", func(c *Config) { c.Tenants = nil }, "", "Tenants"},
		{"bad-name", func(c *Config) { c.Tenants[0].Name = "a/b" }, "a/b", "Name"},
		{"dup-name", func(c *Config) { c.Tenants = append(c.Tenants, base) }, "a", "Name"},
		{"bad-scheme", func(c *Config) { c.Tenants[0].Scheme = "Nope" }, "a", "Scheme"},
		{"neg-pgs", func(c *Config) { c.Tenants[0].PGs = -1 }, "a", "PGs"},
		{"zero-pool", func(c *Config) { c.Tenants[0].PoolBytes = 0 }, "a", "PoolBytes"},
		{"odd-pool", func(c *Config) { c.Tenants[0].PGs = 3; c.Tenants[0].PoolBytes = 64 }, "a", "PoolBytes"},
		{"bad-interleave", func(c *Config) { c.Tenants[0].Interleave = "stripe" }, "a", "Interleave"},
		{"neg-inflight", func(c *Config) { c.Tenants[0].MaxInFlight = -2 }, "a", "MaxInFlight"},
		{"neg-queue", func(c *Config) { c.Tenants[0].MaxQueuedOps = -1 }, "a", "MaxQueuedOps"},
		{"neg-batch", func(c *Config) { c.Tenants[0].BatchOps = -1 }, "a", "BatchOps"},
		{"neg-retry", func(c *Config) { c.RetryAfterSeconds = -1 }, "", "RetryAfterSeconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Tenants: []TenantConfig{base}}
			tc.mut(&cfg)
			_, err := NewPool(cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Tenant != tc.tenant || ce.Field != tc.field {
				t.Fatalf("ConfigError{Tenant:%q Field:%q}, want {%q %q}: %v",
					ce.Tenant, ce.Field, tc.tenant, tc.field, ce)
			}
		})
	}
}

// TestRouteDisjointAndTotal pins the routing function: every pool address
// maps to exactly one (PG, local) slot inside that PG's engine capacity,
// and no two pool addresses collide on the same slot.
func TestRouteDisjointAndTotal(t *testing.T) {
	for _, iv := range []string{"line", "page", "hash"} {
		t.Run(iv, func(t *testing.T) {
			pool := uint64(4 * 4096)
			p, err := NewPool(Config{Tenants: []TenantConfig{{
				Name: "a", Scheme: securemem.SteinsGC, PGs: 4, PoolBytes: pool, Interleave: iv,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			tn := p.Tenant("a")
			per := pgBytes(&tn.cfg, tn.iv)
			seen := map[[2]uint64]uint64{}
			for addr := uint64(0); addr < pool; addr += securemem.BlockSize {
				k, local := tn.route(addr)
				if k < 0 || k >= len(tn.pgs) {
					t.Fatalf("addr %#x routed to pg %d of %d", addr, k, len(tn.pgs))
				}
				if local%securemem.BlockSize != 0 || local >= per {
					t.Fatalf("addr %#x local %#x outside pg capacity %#x", addr, local, per)
				}
				key := [2]uint64{uint64(k), local}
				if prev, dup := seen[key]; dup {
					t.Fatalf("addrs %#x and %#x collide on pg %d local %#x", prev, addr, k, local)
				}
				seen[key] = addr
			}
		})
	}
}

// TestHashRoutingSurvivesRestart pins the property the identity-local
// hash design exists for: routing is a pure address function, so a pool
// built twice routes identically (no first-touch order dependence).
func TestHashRoutingSurvivesRestart(t *testing.T) {
	mk := func() (*Pool, *Tenant) {
		p, err := NewPool(Config{Tenants: []TenantConfig{{
			Name: "a", Scheme: securemem.SteinsGC, PGs: 3, PoolBytes: 96 * 64, Interleave: "hash",
		}}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p, p.Tenant("a")
	}
	_, t1 := mk()
	_, t2 := mk()
	for addr := uint64(0); addr < 96*64; addr += securemem.BlockSize {
		k1, l1 := t1.route(addr)
		k2, l2 := t2.route(addr)
		if k1 != k2 || l1 != l2 {
			t.Fatalf("addr %#x routes differently across lives: (%d,%#x) vs (%d,%#x)",
				addr, k1, l1, k2, l2)
		}
	}
}

// TestMetricsExportPerTenant pins the tenant label threading through the
// metrics pipeline.
func TestMetricsExportPerTenant(t *testing.T) {
	p, err := NewPool(Config{Metrics: true, Tenants: []TenantConfig{
		{Name: "alice", Scheme: securemem.SteinsSC, PGs: 2, PoolBytes: 2 * 64 * 64},
		{Name: "bob", Scheme: securemem.SCUEGC, PoolBytes: 64 * 64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 20; i++ {
		spec := OpSpec{IsWrite: true, Addr: uint64(i) * securemem.BlockSize}
		spec.Data[0] = byte(i)
		if _, aerr := p.Do("alice", []OpSpec{spec}); aerr != nil {
			t.Fatal(aerr)
		}
	}
	ex := p.MetricsExport()
	if len(ex) != 2 || ex[0].Tenant != "alice" || ex[1].Tenant != "bob" {
		t.Fatalf("export tenants wrong: %+v", ex)
	}
	if ex[0].System == nil || ex[0].System.Merged.Tenant != "alice" {
		t.Fatalf("merged snapshot lost the tenant label: %+v", ex[0].System)
	}
	if ex[0].System.Merged.Ops != 20 {
		t.Fatalf("alice merged ops = %d, want 20", ex[0].System.Merged.Ops)
	}
	if got := len(ex[0].System.PerDIMM); got != 2 {
		t.Fatalf("alice has %d per-controller snapshots, want 2 (2 PGs × 1 channel)", got)
	}
	for _, s := range ex[0].System.PerDIMM {
		if s.Tenant != "alice" {
			t.Fatalf("per-controller snapshot lost tenant label: %+v", s)
		}
	}
}
