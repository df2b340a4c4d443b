// Package server is the secure-KV serving layer: a concurrent multi-tenant
// server over the securemem engine. Each tenant owns a pool of placement
// groups (PGs); tenant addresses route onto PGs by the same line/page/hash
// interleave rules the sharded simulation engine uses, and every PG is an
// independent securemem instance, optionally channel-interleaved across
// several controllers (the §IV-F multi-DIMM model). On top of the engines
// the server adds admission control (bounded per-tenant in-flight plus
// queue-depth rejection), request batching by flat combining (a caller
// applies a window of every caller's queued operations as one engine
// epoch), per-tenant metrics export, checkpoint/restore through the
// snapshot envelope, and crash-recovery on restart.
//
// # Linearization
//
// The served path is linearizable by construction, which is what the
// differential test harness proves end to end:
//
//   - Admission assigns every accepted operation a per-tenant sequence
//     number under the tenant's queue lock; the queue is FIFO.
//   - There is no apply goroutine: a caller waiting in Pool.Do becomes the
//     tenant's combiner when no window is in flight and the tenant is not
//     paused. It takes the FIFO head of at most BatchOps operations — a
//     contiguous sequence-number window, possibly holding other callers'
//     operations — and applies it on its own goroutine under the tenant's
//     engine lock, so at most one window applies at a time and windows
//     apply in sequence order.
//   - Within a window the placement groups apply one after another, each
//     its operations in sequence order. Two operations on the same
//     address always land on the same PG — routing is a pure function of
//     the address — so the per-address apply order equals the sequence
//     order.
//
// Replaying the admitted log in sequence order on a single-threaded
// reference therefore reproduces every read's served bytes and the final
// state of every address, for any client interleaving: operations on
// different addresses commute in the data plane, and operations on the
// same address apply in exactly the logged order.
//
// Liveness: a finishing combiner wakes every owner its window completed
// and, while operations stay queued on an unpaused tenant, the owner of
// the queue head, which combines next unless another caller already does.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/snapshot"
	"steins/internal/trace"
	"steins/securemem"
)

// OpSpec is one operation submitted to a tenant: a 64-byte write or a
// read, at a tenant-global block-aligned address.
type OpSpec struct {
	IsWrite bool
	Addr    uint64
	Data    securemem.Block
}

// op is one admitted operation. The combiner fills data (for reads) and
// err before completing the owning request, so its owner may read them
// once the request's pending count is zero.
type op struct {
	isWrite bool
	addr    uint64 // tenant-global address
	local   uint64 // PG-local address, set at apply time
	pg      int    // placement group, set at apply time
	data    securemem.Block
	err     error
	seq     uint64
	req     *request
}

// request is one admitted client request. Its owner waits on wake (whose
// lock is Tenant.mu) until pending, the count of its operations not yet
// applied, drops to zero; a finishing combiner also signals wake to hand
// the next window to the owner.
type request struct {
	ops     []op
	pending int // guarded by Tenant.mu
	wake    sync.Cond
}

// AdmissionError is a rejected submission; Status is the HTTP status the
// handler maps it to (429 for admission-control rejections, 503 while
// draining, 404/400 for routing errors).
type AdmissionError struct {
	Status int
	Reason string
}

func (e *AdmissionError) Error() string { return fmt.Sprintf("server: %s", e.Reason) }

// LogRecord is one linearized operation: for writes the stored bytes, for
// reads the bytes the server returned. Valid once the owning request has
// completed.
type LogRecord struct {
	Seq     uint64
	IsWrite bool
	Addr    uint64
	Data    securemem.Block
	Err     string
}

// TenantRecovery is the structured per-tenant outcome of the restart
// recovery pass: work summed across placement groups, time the parallel
// maximum (PGs recover independently), degradation folded.
type TenantRecovery struct {
	Tenant         string `json:"tenant"`
	Recovered      bool   `json:"recovered"`
	Err            string `json:"error,omitempty"`
	PGs            int    `json:"pgs"`
	NodesRecovered uint64 `json:"nodes_recovered"`
	NVMReads       uint64 `json:"nvm_reads"`
	NVMWrites      uint64 `json:"nvm_writes"`
	MACOps         uint64 `json:"mac_ops"`
	// SimulatedNS is the recovery-time bound: PGs (and channels within a
	// PG) recover in parallel, so the slowest bounds the outage.
	SimulatedNS float64                     `json:"simulated_ns"`
	Degradation securemem.DegradationReport `json:"degradation"`
	// RecoverErr is the joined per-PG recovery error; errors.Is
	// classification (ErrNoRecovery, ErrTamper, ErrReplay) works on it.
	RecoverErr error `json:"-"`
}

// AdmissionStats are one tenant's admission-control counters. The
// invariant the property test pins: Offered == Accepted + Rejected, and
// InFlightHWM never exceeds the configured bound.
type AdmissionStats struct {
	Offered          uint64 `json:"offered"`
	Accepted         uint64 `json:"accepted"`
	Rejected         uint64 `json:"rejected"`
	RejectedInFlight uint64 `json:"rejected_in_flight"`
	RejectedQueue    uint64 `json:"rejected_queue"`
	RejectedDraining uint64 `json:"rejected_draining"`
	InFlight         int    `json:"in_flight"`
	InFlightHWM      int    `json:"in_flight_hwm"`
	QueueDepth       int    `json:"queue_depth"`
	Batches          uint64 `json:"batches"`
}

// Tenant is one tenant's placement-group pool plus its serving state.
type Tenant struct {
	cfg TenantConfig
	iv  trace.Interleave
	pgs []*securemem.Memory

	// engineMu serializes all engine access: the combiner holds it across
	// one window (the "engine epoch"), and state capture, metrics export
	// and recovery hold it to observe a batch boundary.
	engineMu sync.Mutex

	// mu guards the admission and combining state below; idle signals
	// drain waiters (in-flight dropped).
	mu        sync.Mutex
	idle      sync.Cond
	queue     []*op
	window    []*op      // the combiner's window, reused
	combining bool       // a window is being applied
	free      []*request // completed requests for reuse; empty while recording
	inflight  int
	hwm       int
	adm       AdmissionStats
	nextSeq   uint64
	record    bool
	log       []*op
	paused    bool // test hook: no window starts while set
	closed    bool
	batches   uint64
	recovery  *TenantRecovery
}

// Pool is the multi-tenant serving core; build with NewPool, serve over
// HTTP with Handler.
type Pool struct {
	cfg      Config
	names    []string // tenant names in config order
	tenants  map[string]*Tenant
	draining atomic.Bool
}

// NewPool validates cfg and builds every tenant's placement-group
// engines. The pool starts no goroutine: callers of Do apply the queued
// work themselves.
func NewPool(cfg Config) (*Pool, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, tenants: map[string]*Tenant{}}
	for i := range cfg.Tenants {
		tc := cfg.Tenants[i]
		iv, _ := parseInterleave(tc.Interleave)
		t := &Tenant{cfg: tc, iv: iv, record: cfg.RecordLog}
		t.idle.L = &t.mu
		per := pgBytes(&tc, iv)
		for k := 0; k < tc.PGs; k++ {
			m, err := securemem.New(securemem.Config{
				DataBytes:      per,
				Scheme:         tc.Scheme,
				Channels:       tc.Channels,
				MetaCacheBytes: tc.MetaCacheBytes,
				KeySeed:        tc.KeySeed,
			})
			if err != nil {
				return nil, fmt.Errorf("server: tenant %q pg %d: %w", tc.Name, k, err)
			}
			if cfg.Metrics {
				for _, c := range m.Controllers() {
					c.SetMetrics(metrics.NewCollector(metrics.Options{}))
				}
			}
			t.pgs = append(t.pgs, m)
		}
		p.names = append(p.names, tc.Name)
		p.tenants[tc.Name] = t
	}
	return p, nil
}

// Config returns the validated (normalized) configuration.
func (p *Pool) Config() Config { return p.cfg }

// Tenant returns a tenant by name, nil if unknown.
func (p *Pool) Tenant(name string) *Tenant { return p.tenants[name] }

// TenantNames returns the tenant names in configuration order.
func (p *Pool) TenantNames() []string { return p.names }

// route maps a tenant-global address to its (placement group, PG-local
// address) home by trace.Route, the sharded engine's exact map.
func (t *Tenant) route(addr uint64) (int, uint64) {
	return trace.Route(t.iv, addr, len(t.pgs))
}

// CheckAddr validates a tenant-global address.
func (t *Tenant) CheckAddr(addr uint64) error {
	if addr%securemem.BlockSize != 0 {
		return fmt.Errorf("address %#x is not %d-byte aligned", addr, securemem.BlockSize)
	}
	if addr >= t.cfg.PoolBytes {
		return fmt.Errorf("address %#x beyond pool capacity %#x", addr, t.cfg.PoolBytes)
	}
	return nil
}

// submit admits one request of ops (or rejects it without touching any
// engine state) and queues its operations. The caller must then await
// the request exactly once.
func (t *Tenant) submit(specs []OpSpec, draining bool) (*request, *AdmissionError) {
	if len(specs) == 0 {
		return nil, &AdmissionError{Status: 400, Reason: "empty request"}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.adm.Offered++
	if draining || t.closed {
		t.adm.Rejected++
		t.adm.RejectedDraining++
		return nil, &AdmissionError{Status: 503, Reason: "draining"}
	}
	if t.inflight >= t.cfg.MaxInFlight {
		t.adm.Rejected++
		t.adm.RejectedInFlight++
		return nil, &AdmissionError{Status: 429,
			Reason: fmt.Sprintf("tenant %q at its in-flight bound (%d)", t.cfg.Name, t.cfg.MaxInFlight)}
	}
	if len(t.queue)+len(specs) > t.cfg.MaxQueuedOps {
		t.adm.Rejected++
		t.adm.RejectedQueue++
		return nil, &AdmissionError{Status: 429,
			Reason: fmt.Sprintf("tenant %q queue full (%d ops)", t.cfg.Name, t.cfg.MaxQueuedOps)}
	}
	t.adm.Accepted++
	t.inflight++
	if t.inflight > t.hwm {
		t.hwm = t.inflight
	}
	req := t.newRequest(len(specs))
	for i, s := range specs {
		o := &req.ops[i]
		*o = op{isWrite: s.IsWrite, addr: s.Addr, data: s.Data, seq: t.nextSeq, req: req}
		t.nextSeq++
		t.queue = append(t.queue, o)
		if t.record {
			t.log = append(t.log, o)
		}
	}
	return req, nil
}

// newRequest takes a request of n operations from the free list, or
// allocates one. Called with t.mu held.
func (t *Tenant) newRequest(n int) *request {
	var req *request
	if k := len(t.free); k > 0 {
		req = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		req = &request{}
		req.wake.L = &t.mu
	}
	req.ops = slices.Grow(req.ops[:0], n)[:n]
	req.pending = n
	return req
}

// await waits for req to complete, combining whenever a window may start,
// then copies the results into out[:len(req.ops)] and returns the
// request's admission slot.
func (t *Tenant) await(req *request, out []OpResult) {
	t.mu.Lock()
	for req.pending > 0 {
		if !t.combining && !t.paused && len(t.queue) > 0 {
			t.combine()
		} else {
			req.wake.Wait()
		}
	}
	for i := range req.ops {
		o := &req.ops[i]
		out[i] = OpResult{IsWrite: o.isWrite, Addr: o.addr, Data: o.data, Err: o.err}
	}
	t.inflight--
	t.idle.Broadcast()
	if !t.record { // the log keeps pointers into recorded requests
		t.free = append(t.free, req)
	}
	t.mu.Unlock()
}

// combine applies the FIFO head window of at most BatchOps operations as
// one engine epoch on the calling goroutine, completes the requests the
// window finished and hands off. Called, and returns, with t.mu held.
func (t *Tenant) combine() {
	n := min(len(t.queue), t.cfg.BatchOps)
	w := append(t.window[:0], t.queue[:n]...)
	rest := copy(t.queue, t.queue[n:])
	clear(t.queue[rest:])
	t.queue = t.queue[:rest]
	t.combining = true
	t.mu.Unlock()

	t.apply(w)

	t.mu.Lock()
	t.combining = false
	t.batches++
	for _, o := range w {
		o.req.pending--
		if o.req.pending == 0 {
			o.req.wake.Signal()
		}
	}
	clear(w)
	t.window = w[:0]
	t.handoff()
}

// handoff wakes the owner of the queue head, which combines next unless
// another caller already does, if a window may start. Called with t.mu
// held.
func (t *Tenant) handoff() {
	if len(t.queue) > 0 && !t.paused && !t.combining {
		t.queue[0].req.wake.Signal()
	}
}

// apply applies one window under engineMu, which makes it one observable
// engine epoch: the placement groups one after another, each its
// operations in sequence order.
func (t *Tenant) apply(w []*op) {
	t.engineMu.Lock()
	defer t.engineMu.Unlock()
	for _, o := range w {
		o.pg, o.local = t.route(o.addr)
	}
	for k, m := range t.pgs {
		for _, o := range w {
			if o.pg != k {
				continue
			}
			if o.isWrite {
				o.err = m.Write(o.local, o.data)
			} else {
				o.data, o.err = m.Read(o.local)
			}
		}
	}
}

// OpResult is one completed operation: Data holds the served bytes for
// reads (the written bytes for writes), Err any per-op engine error.
type OpResult struct {
	IsWrite bool
	Addr    uint64
	Data    securemem.Block
	Err     error
}

// Do admits, applies and completes one request synchronously: the Go-level
// serving API the HTTP handlers (and in-process harnesses) sit on.
func (p *Pool) Do(tenant string, specs []OpSpec) ([]OpResult, *AdmissionError) {
	out := make([]OpResult, len(specs))
	if aerr := p.do(tenant, specs, out); aerr != nil {
		return nil, aerr
	}
	return out, nil
}

// do is Do filling the caller's out[:len(specs)] instead of allocating
// the results.
func (p *Pool) do(tenant string, specs []OpSpec, out []OpResult) *AdmissionError {
	t := p.tenants[tenant]
	if t == nil {
		return &AdmissionError{Status: 404, Reason: fmt.Sprintf("unknown tenant %q", tenant)}
	}
	for i := range specs {
		if err := t.CheckAddr(specs[i].Addr); err != nil {
			return &AdmissionError{Status: 400, Reason: err.Error()}
		}
	}
	req, aerr := t.submit(specs, p.draining.Load())
	if aerr != nil {
		return aerr
	}
	t.await(req, out)
	return nil
}

// Drain stops admission pool-wide (new requests get 503) and waits for
// every tenant's queue and in-flight window to empty. The pool is
// afterwards quiesced: State and checkpointing see the final batch
// boundary.
func (p *Pool) Drain() {
	p.draining.Store(true)
	for _, name := range p.names {
		t := p.tenants[name]
		t.mu.Lock()
		t.paused = false
		t.handoff()
		for len(t.queue) > 0 || t.inflight > 0 {
			t.idle.Wait()
		}
		t.closed = true
		t.mu.Unlock()
	}
}

// Close is Drain for callers that don't need the distinction.
func (p *Pool) Close() { p.Drain() }

// setPaused is the test hook behind the admission property test: a paused
// tenant admits and queues but starts no window, so engine state is
// provably untouched by whatever admission decides.
func (t *Tenant) setPaused(paused bool) {
	t.mu.Lock()
	t.paused = paused
	t.handoff()
	t.mu.Unlock()
}

// waitIdle blocks until the tenant's queue is empty and no request is in
// flight (a batch boundary with nothing pending).
func (t *Tenant) waitIdle() {
	t.mu.Lock()
	for len(t.queue) > 0 || t.inflight > 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// Admission returns the tenant's admission counters.
func (t *Tenant) Admission() AdmissionStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.adm
	st.InFlight = t.inflight
	st.InFlightHWM = t.hwm
	st.QueueDepth = len(t.queue)
	st.Batches = t.batches
	return st
}

// Log materializes the tenant's linearized request log (RecordLog must
// have been set). Only records of completed requests carry read results;
// call on a quiesced tenant.
func (t *Tenant) Log() []LogRecord {
	t.mu.Lock()
	ops := append([]*op(nil), t.log...)
	t.mu.Unlock()
	recs := make([]LogRecord, len(ops))
	for i, o := range ops {
		recs[i] = LogRecord{Seq: o.seq, IsWrite: o.isWrite, Addr: o.addr, Data: o.data}
		if o.err != nil {
			recs[i].Err = o.err.Error()
		}
	}
	return recs
}

// Recovery returns the tenant's last restart-recovery outcome, nil if the
// pool never went through a restart.
func (t *Tenant) Recovery() *TenantRecovery {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recovery
}

// PGStats returns one securemem.Stats per placement group, taken at a
// batch boundary.
func (t *Tenant) PGStats() []securemem.Stats {
	t.engineMu.Lock()
	defer t.engineMu.Unlock()
	out := make([]securemem.Stats, len(t.pgs))
	for i, m := range t.pgs {
		out[i] = m.Stats()
	}
	return out
}

// state captures the tenant at a batch boundary.
func (t *Tenant) state() (snapshot.TenantState, error) {
	t.engineMu.Lock()
	defer t.engineMu.Unlock()
	t.mu.Lock()
	seq := t.nextSeq
	t.mu.Unlock()
	ts := snapshot.TenantState{Name: t.cfg.Name, Scheme: string(t.cfg.Scheme),
		Interleave: t.iv.String(), AppliedSeq: seq}
	for k, m := range t.pgs {
		pg := snapshot.PGState{}
		for chk, c := range m.Controllers() {
			cs, err := c.State()
			if err != nil {
				return ts, fmt.Errorf("server: tenant %q pg %d channel %d: %w", t.cfg.Name, k, chk, err)
			}
			pg.Channels = append(pg.Channels, *cs)
		}
		ts.PGs = append(ts.PGs, pg)
	}
	return ts, nil
}

// State captures the whole pool at tenant batch boundaries (tenants in
// name-sorted configuration order, so identical pools produce identical
// bytes through snapshot.Encode).
func (p *Pool) State() (*snapshot.ServerState, error) {
	st := &snapshot.ServerState{}
	for _, name := range p.names {
		ts, err := p.tenants[name].state()
		if err != nil {
			return nil, err
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st, nil
}

// StateBytes is State through the snapshot envelope: the byte-comparable
// checkpoint image.
func (p *Pool) StateBytes() ([]byte, error) {
	st, err := p.State()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(st)
}

// RestoreState loads a checkpoint into a freshly built pool of the same
// configuration. Every refusal wraps snapshot.ErrCorrupt: a checkpoint
// whose shape (tenants, interleave, placement groups, channels) does not
// match the configuration, and a controller image that cannot be restored
// (another layout, inconsistent or out-of-range tables), whose error names
// the table.
//
// The whole checkpoint's shape is checked before any controller changes,
// so a shape refusal leaves the pool as it was built. The controllers then
// restore concurrently, on at most GOMAXPROCS workers (the bound keeps the
// peak of freshly faulted-in device arenas in step with the cores that
// fill them); the error returned is the first refused controller in
// tenant/PG/channel order. A pool refused that late is partly restored and
// fit only to be discarded.
func (p *Pool) RestoreState(st *snapshot.ServerState) error {
	if len(st.Tenants) != len(p.names) {
		return fmt.Errorf("server: %w: checkpoint has %d tenants, config has %d", snapshot.ErrCorrupt, len(st.Tenants), len(p.names))
	}
	type restore struct {
		tenant string
		pg, ch int
		c      *memctrl.Controller
		cs     *memctrl.ControllerState
	}
	var jobs []restore
	for i, ts := range st.Tenants {
		t := p.tenants[ts.Name]
		if t == nil {
			return fmt.Errorf("server: %w: checkpoint tenant %q not in configuration", snapshot.ErrCorrupt, ts.Name)
		}
		if want := p.names[i]; ts.Name != want {
			return fmt.Errorf("server: %w: checkpoint tenant %d is %q, config order says %q", snapshot.ErrCorrupt, i, ts.Name, want)
		}
		if ts.Scheme != string(t.cfg.Scheme) {
			return fmt.Errorf("server: %w: tenant %q checkpointed under scheme %s, configured %s",
				snapshot.ErrCorrupt, ts.Name, ts.Scheme, t.cfg.Scheme)
		}
		// The PG-local layout is the interleave's.
		if ts.Interleave != t.iv.String() {
			return fmt.Errorf("server: %w: tenant %q checkpointed under %q interleave, configured %s",
				snapshot.ErrCorrupt, ts.Name, ts.Interleave, t.iv)
		}
		if len(ts.PGs) != len(t.pgs) {
			return fmt.Errorf("server: %w: tenant %q checkpoint has %d PGs, config has %d",
				snapshot.ErrCorrupt, ts.Name, len(ts.PGs), len(t.pgs))
		}
		for k := range ts.PGs {
			ctrls := t.pgs[k].Controllers()
			if len(ts.PGs[k].Channels) != len(ctrls) {
				return fmt.Errorf("server: %w: tenant %q pg %d checkpoint has %d channels, config has %d",
					snapshot.ErrCorrupt, ts.Name, k, len(ts.PGs[k].Channels), len(ctrls))
			}
			for chk, c := range ctrls {
				jobs = append(jobs, restore{ts.Name, k, chk, c, &ts.PGs[k].Channels[chk]})
			}
		}
	}

	for _, name := range p.names {
		p.tenants[name].engineMu.Lock()
	}
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				errs[i] = jobs[i].c.Restore(jobs[i].cs)
			}
		}()
	}
	wg.Wait()
	for _, name := range p.names {
		p.tenants[name].engineMu.Unlock()
	}
	for i, err := range errs {
		if err != nil {
			j := jobs[i]
			return fmt.Errorf("server: tenant %q pg %d channel %d: %w: %w", j.tenant, j.pg, j.ch, snapshot.ErrCorrupt, err)
		}
	}
	for i, ts := range st.Tenants {
		t := p.tenants[p.names[i]]
		t.mu.Lock()
		t.nextSeq = ts.AppliedSeq
		t.mu.Unlock()
	}
	return nil
}

// CrashRecoverAll models the restart after an outage: every tenant's
// placement groups crash (volatile controller state lost) and recover via
// their schemes, concurrently across PGs — multi-channel PGs additionally
// recover channel-parallel through multi.System.Recover inside securemem.
// The per-tenant reports (work summed, time the parallel max, degradation
// folded) are retained for the /recovery endpoint and returned in tenant
// configuration order.
func (p *Pool) CrashRecoverAll() []TenantRecovery {
	out := make([]TenantRecovery, 0, len(p.names))
	for _, name := range p.names {
		t := p.tenants[name]
		t.engineMu.Lock()
		tr := TenantRecovery{Tenant: name, PGs: len(t.pgs)}
		reps := make([]securemem.RecoveryReport, len(t.pgs))
		errs := make([]error, len(t.pgs))
		var wg sync.WaitGroup
		for k, m := range t.pgs {
			wg.Add(1)
			go func(k int, m *securemem.Memory) {
				defer wg.Done()
				m.Crash()
				reps[k], errs[k] = m.Recover()
			}(k, m)
		}
		wg.Wait()
		for k := range reps {
			if errs[k] != nil {
				errs[k] = fmt.Errorf("pg %d: %w", k, errs[k])
				continue
			}
			tr.NodesRecovered += reps[k].NodesRecovered
			tr.NVMReads += reps[k].NVMReads
			tr.NVMWrites += reps[k].NVMWrites
			tr.MACOps += reps[k].MACOps
			if reps[k].SimulatedNS > tr.SimulatedNS {
				tr.SimulatedNS = reps[k].SimulatedNS
			}
			tr.Degradation.Fold(&reps[k].Degradation)
		}
		tr.RecoverErr = errors.Join(errs...)
		tr.Recovered = tr.RecoverErr == nil
		if tr.RecoverErr != nil {
			tr.Err = tr.RecoverErr.Error()
		}
		t.engineMu.Unlock()
		t.mu.Lock()
		t.recovery = &tr
		t.mu.Unlock()
		out = append(out, tr)
	}
	return out
}

// TenantMetrics is one tenant's /metrics entry: per-controller snapshots
// labeled pg<k>/ch<j>, merged into the system view, all carrying the
// tenant label.
type TenantMetrics struct {
	Tenant string                  `json:"tenant"`
	System *metrics.SystemSnapshot `json:"system"`
}

// MetricsExport assembles the per-tenant metrics at batch boundaries.
func (p *Pool) MetricsExport() []TenantMetrics {
	out := make([]TenantMetrics, 0, len(p.names))
	for _, name := range p.names {
		t := p.tenants[name]
		t.engineMu.Lock()
		var snaps []metrics.Snapshot
		for k, m := range t.pgs {
			for chk, c := range m.Controllers() {
				s := c.MetricsSnapshot(fmt.Sprintf("pg%d/ch%d", k, chk))
				s.Tenant = name
				snaps = append(snaps, *s)
			}
		}
		t.engineMu.Unlock()
		out = append(out, TenantMetrics{Tenant: name, System: metrics.MergeSnapshots(snaps)})
	}
	return out
}
