package memctrl

import (
	"encoding/binary"
	"errors"

	"steins/internal/arena"
	"steins/internal/cache"
	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// Controller is the secure memory controller. It serialises requests to
// one DIMM (§IV-F): each request occupies the controller for its critical
// path, and a request arriving while the controller is busy queues behind
// it, which is how heavyweight schemes (shadow writes, cache-tree updates)
// degrade execution time.
//
// Not safe for concurrent use.
type Controller struct {
	cfg    Config
	lay    Layout
	dev    *nvmem.Device
	meta   *cache.Cache[*sit.Node]
	root   sit.Root
	eng    cme.Engine
	policy Policy

	// tags holds the per-data-line authentication tags, indexed by line
	// number (addr/64), each in a tagSize-byte slot (Tag, SetTag). An
	// arena instead of a map: the tag store sits on every data read and
	// write. A zero slot means "never written", exactly as a map miss did.
	// The chunks are byte blocks, like the device's lines, so a checkpoint
	// carries them as they are and a restore adopts them (state.go).
	tags arena.Bytes

	// evicting tracks nodes whose dirty eviction is in flight: removed
	// from the cache but (for classic schemes) not yet persisted. A fetch
	// that lands on one must take the in-flight copy — the NVM image is
	// stale until the eviction finishes. At most a handful are ever in
	// flight (eviction cascades), so a linear slice beats a map.
	evicting []evictingNode

	// quarBits is a bitset over leaf indices degraded recovery gave up
	// on (quarN set bits); any data access under them returns a
	// *MediaFault. Cleared at the next crash (the following recovery
	// re-evaluates the damage). Allocated on first quarantine — the
	// common fault-free run never touches it.
	quarBits []uint64
	quarN    int
	// quarInfo carries each quarantined leaf's arbitration record (root,
	// cause, evidence); readmit tracks data slots freshly rewritten under a
	// quarantined leaf (bit i = slot i re-admitted). Both nil until used.
	quarInfo map[uint64]quarInfo
	readmit  map[uint64]uint64
	// escalated is the controller's persistent RAS log: per-line counts of
	// reads that exhausted the retry budget. Unlike the quarantine verdict
	// it survives crashes — it is media evidence, not a recovery decision.
	escalated map[uint64]uint64

	// crashed/recovered/lastRecovery make Recover idempotent: a repeated
	// call after a completed recovery replays the cached report instead of
	// re-running side effects.
	crashed      bool
	recovered    bool
	lastRecovery RecoveryReport

	// released is set by a Close that released restored tables: the
	// controller no longer holds its data (Close).
	released bool

	arrival   uint64 // trace-time arrival of the current request
	reqStart  uint64 // cycle the current request began service
	busyUntil uint64
	warmupEnd uint64 // makespan at the last ResetStats
	stats     Stats

	// bd is the in-flight request's per-phase cycle split; attribution
	// sites add raw (possibly overlapped) latencies, finishOp normalizes
	// it against the request's actual service time.
	bd metrics.Breakdown
	// mx, when set, gathers the optional per-phase histograms and the
	// occupancy time series; nil keeps the hot path alloc-free.
	mx *metrics.Collector

	// hooks, when set, observes fault-injection events (see fault.go).
	hooks FaultHooks

	// macMsg is the node-MAC scratch buffer (see sit.NodeMACInto): node
	// seals and verifications run per eviction and per fetch, and a stack
	// buffer would escape into the MAC interface on every call.
	macMsg [72]byte
}

// New builds a controller with the given configuration and recovery
// scheme. The NVM capacity is derived from the layout.
func New(cfg Config, factory PolicyFactory) *Controller {
	cfg, err := cfg.Validate()
	if err != nil {
		panic(err)
	}
	lay := NewLayout(cfg)
	cfg.NVM.CapacityBytes = lay.Capacity
	c := &Controller{
		cfg:  cfg,
		lay:  lay,
		dev:  nvmem.New(cfg.NVM),
		tags: arena.NewBytes(tagSize),
		meta: cache.New[*sit.Node](cfg.MetaCacheBytes, cfg.MetaCacheWays, nvmem.LineSize),
		eng:  cme.Engine{Key: cfg.Key, OTP: cfg.OTP, MAC: cfg.MAC},
	}
	c.policy = factory(c)
	if cfg.EagerUpdate && c.policy.CounterGen() {
		panic("memctrl: eager update is only supported with classic self-increment schemes")
	}
	return c
}

// Accessors used by policies, recovery and the harness.

// Config returns the controller configuration.
func (c *Controller) Config() *Config { return &c.cfg }

// Layout returns the NVM region layout.
func (c *Controller) Layout() *Layout { return &c.lay }

// Device returns the NVM device.
func (c *Controller) Device() *nvmem.Device { return c.dev }

// Meta returns the metadata cache.
func (c *Controller) Meta() *cache.Cache[*sit.Node] { return c.meta }

// Root returns the on-chip root register file.
func (c *Controller) Root() *sit.Root { return &c.root }

// Engine returns the CME engine.
func (c *Controller) Engine() *cme.Engine { return &c.eng }

// Policy returns the active recovery scheme.
func (c *Controller) Policy() Policy { return c.policy }

// Stats returns a snapshot of controller statistics. MediaCorrected
// mirrors the device's ECC correction count at snapshot time.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.MediaCorrected = c.dev.Stats().Faults.Corrected
	return st
}

// ResetStats zeroes controller and device statistics without touching any
// state; the simulator calls it at the end of the warm-up phase. The
// makespan clock keeps running (it orders requests), so execution time for
// a measured phase is the makespan delta.
func (c *Controller) ResetStats() {
	c.stats = Stats{}
	c.dev.ResetStats()
	c.meta.ResetStats()
	if c.mx != nil {
		c.mx.Reset()
	}
	c.warmupEnd = c.busyUntil
}

// MeasuredExecCycles returns the makespan excluding the warm-up phase.
func (c *Controller) MeasuredExecCycles() uint64 { return c.busyUntil - c.warmupEnd }

// ExecCycles returns the makespan so far: the cycle the controller last
// went idle. This is the execution-time metric of Fig. 9/12.
func (c *Controller) ExecCycles() uint64 { return c.busyUntil }

// EnergyPJ returns total energy: NVM accesses plus crypto engine work.
func (c *Controller) EnergyPJ() float64 {
	return c.dev.EnergyPJ() +
		float64(c.stats.HashOps)*c.cfg.HashPJ +
		float64(c.stats.AESOps)*c.cfg.AESPJ
}

// Now returns the service-start cycle of the request in flight; device
// accesses within a request are stamped with it.
func (c *Controller) Now() uint64 { return c.reqStart }

// tagSize is the width of one tag-table slot: the MAC and the hint as
// little-endian uint64s, then the written flag, 0 or 1.
const tagSize = 17

// Tag returns the co-located authentication tag of a data line. It stays
// small enough to inline: recovery reads every data line's tag.
func (c *Controller) Tag(addr uint64) cme.Tag {
	s := c.tags.Probe(addr / nvmem.LineSize)
	if s == nil {
		return cme.Tag{}
	}
	return cme.Tag{MAC: binary.LittleEndian.Uint64(s), Hint: binary.LittleEndian.Uint64(s[8:]), Written: s[16] != 0}
}

// SetTag overwrites a data line's tag. The data path seals every write
// through it; attack injection uses it to model an adversary rewriting
// ECC bits.
func (c *Controller) SetTag(addr uint64, t cme.Tag) {
	s := (*[tagSize]byte)(c.tags.Ptr(addr / nvmem.LineSize))
	binary.LittleEndian.PutUint64(s[:8], t.MAC)
	binary.LittleEndian.PutUint64(s[8:16], t.Hint)
	w := byte(0)
	if t.Written {
		w = 1
	}
	s[16] = w
}

// ReadLeafData reads the data blocks leaf idx covers into l, the one
// read of a leaf's data for recovery: each line straight into its slot's
// MAC message, packed under the tag hint, beside its tag. It returns the
// written slots, ascending, in l's own storage. It allocates nothing and
// charges nothing: each recovery pass charges the reads it consumes.
func (c *Controller) ReadLeafData(idx uint64, l *cme.Leaf) []int {
	geo := &c.lay.Geo
	l.Reset()
	for i := range int(geo.LeafCover) {
		daddr := geo.DataAddr(idx, i)
		c.dev.PeekInto(daddr, (*nvmem.Line)(l.Line(i)))
		l.Pack(i, daddr, c.Tag(daddr))
	}
	return l.Written()
}

// ChargeHash accounts n MAC-engine operations and returns their latency.
func (c *Controller) ChargeHash(n uint64) uint64 {
	c.stats.HashOps += n
	return n * c.cfg.HashCycles
}

// CountHash accounts MAC-engine work that runs on a dedicated pipelined
// engine off the critical path (cache-tree updates); it contributes to
// energy but the caller decides the latency charge.
func (c *Controller) CountHash(n uint64) {
	c.stats.HashOps += n
}

// ReadLineRetried issues a timed device line read, reissuing it after a
// detected-uncorrectable ECC event up to ReadRetries times with a linear
// per-attempt backoff added to the latency (transient faults are redrawn
// per attempt, so retries genuinely help). A read that exhausts the budget
// escalates as a *MediaFault wrapping the device error; address errors
// pass through unretried.
func (c *Controller) ReadLineRetried(at uint64, addr uint64, cls nvmem.Class) (nvmem.Line, uint64, error) {
	line, lat, err := c.dev.Read(at, addr, cls)
	if err == nil || !errors.Is(err, nvmem.ErrUncorrectable) {
		return line, lat, err
	}
	for try := 1; try <= c.cfg.ReadRetries; try++ {
		c.stats.MediaRetried++
		backoff := uint64(try) * c.cfg.RetryBackoffCycles
		var rlat uint64
		line, rlat, err = c.dev.Read(at+lat+backoff, addr, cls)
		lat += backoff + rlat
		if err == nil || !errors.Is(err, nvmem.ErrUncorrectable) {
			return line, lat, err
		}
	}
	c.stats.MediaEscalated++
	if c.escalated == nil {
		c.escalated = make(map[uint64]uint64)
	}
	c.escalated[addr]++
	return line, lat, &MediaFault{Addr: addr, Err: err}
}

// --- in-flight evictions ------------------------------------------------------

// evictingNode is one dirty eviction in flight, keyed by NVM node address.
type evictingNode struct {
	addr uint64
	node *sit.Node
}

// evictingNode returns the in-flight copy of the node at addr, if any.
// The slice holds at most an eviction cascade's worth of entries, so a
// linear scan wins over any keyed structure.
func (c *Controller) evictingNode(addr uint64) (*sit.Node, bool) {
	for i := range c.evicting {
		if c.evicting[i].addr == addr {
			return c.evicting[i].node, true
		}
	}
	return nil, false
}

// dropEvicting removes the newest in-flight entry for addr (evictions
// nest LIFO: a cascade finishes inner entries first).
func (c *Controller) dropEvicting(addr uint64) {
	for i := len(c.evicting) - 1; i >= 0; i-- {
		if c.evicting[i].addr == addr {
			c.evicting = append(c.evicting[:i], c.evicting[i+1:]...)
			return
		}
	}
}

// --- quarantine --------------------------------------------------------------

// QuarantineLeaf marks a level-0 leaf's covered data as lost to degraded
// recovery; subsequent accesses under it fail with a *MediaFault.
func (c *Controller) QuarantineLeaf(index uint64) {
	if c.quarBits == nil {
		c.quarBits = make([]uint64, (c.lay.Geo.LevelNodes[0]+63)/64)
	}
	w, b := index/64, index%64
	if c.quarBits[w]&(1<<b) == 0 {
		c.quarBits[w] |= 1 << b
		c.quarN++
	}
}

// LeafQuarantined reports whether a leaf is quarantined.
func (c *Controller) LeafQuarantined(index uint64) bool {
	if c.quarN == 0 {
		return false
	}
	return c.quarBits[index/64]&(1<<(index%64)) != 0
}

// QuarantinedLeaves returns the number of quarantined leaves.
func (c *Controller) QuarantinedLeaves() int { return c.quarN }

// --- metadata fetch ----------------------------------------------------------

// FetchNode returns the cached entry for tree node (level, index), loading
// and verifying it (and, on misses, its ancestors) from NVM. The returned
// cycles are the critical-path cost; the entry pointer is valid until the
// next cache mutation.
func (c *Controller) FetchNode(level int, index uint64) (*cache.Entry[*sit.Node], uint64, error) {
	addr := c.lay.Geo.NodeAddr(level, index)
	if e, ok := c.meta.Lookup(addr); ok {
		c.Attribute(metrics.PhaseMetaFetch, c.cfg.CacheHitCycles)
		return e, c.cfg.CacheHitCycles, nil
	}
	if n, ok := c.evictingNode(addr); ok {
		// The node's dirty eviction is in flight; its NVM image may be
		// stale, so re-adopt the in-flight copy (still the newest
		// version) instead of reading the device.
		c.Attribute(metrics.PhaseMetaFetch, c.cfg.CacheHitCycles)
		e, icyc, err := c.insertNode(addr, n, true)
		return e, icyc + c.cfg.CacheHitCycles, err
	}
	var cycles uint64
	var pc uint64
	if ov, ok := c.policy.ParentCounterOverride(level, index); ok {
		pc = ov
	} else if c.lay.Geo.IsTop(level) {
		pc = c.root.Counter(index)
	} else {
		pl, pi, slot := c.lay.Geo.Parent(level, index)
		pe, pcyc, err := c.FetchNode(pl, pi)
		cycles += pcyc
		if err != nil {
			return nil, cycles, err
		}
		pc = pe.Payload.Counter(slot)
	}
	line, rlat, err := c.ReadLineRetried(c.reqStart+cycles, addr, nvmem.ClassMeta)
	c.Attribute(metrics.PhaseMetaFetch, rlat)
	cycles += rlat
	if err != nil {
		return nil, cycles, err
	}
	node, vcyc, err := c.VerifyNodeLine(level, index, counter.Block(line), pc)
	cycles += vcyc
	if err != nil {
		return nil, cycles, err
	}
	e, icyc, err := c.insertNode(addr, node, false)
	return e, cycles + icyc, err
}

// insertNode places a node in the metadata cache, writing back displaced
// dirty victims through the policy.
func (c *Controller) insertNode(addr uint64, node *sit.Node, dirty bool) (*cache.Entry[*sit.Node], uint64, error) {
	var cycles uint64
	for {
		// Nested work triggered on this path (drains, eviction cascades)
		// can itself have loaded — and possibly updated — this node; the
		// resident copy is then authoritative.
		if live, ok := c.meta.Probe(addr); ok {
			if dirty {
				live.Dirty = true
			}
			return live, cycles, nil
		}
		e, victim, evicted := c.meta.Insert(addr, node, dirty)
		if !evicted || !victim.Dirty {
			return e, cycles, nil
		}
		evc, err := c.EvictDirtyNode(victim.Payload)
		cycles += evc
		if err != nil {
			return nil, cycles, err
		}
	}
}

// EvictDirtyNode writes a dirty node back through the active policy,
// tracking it as in flight so a concurrent refetch adopts the live copy,
// and re-registers it with the policy if the eviction cascade pulled it
// back into the cache.
func (c *Controller) EvictDirtyNode(node *sit.Node) (uint64, error) {
	addr := c.lay.Geo.NodeAddr(node.Level, node.Index)
	c.evicting = append(c.evicting, evictingNode{addr: addr, node: node})
	cycles, err := c.policy.EvictDirty(node)
	c.dropEvicting(addr)
	if err != nil {
		return cycles, err
	}
	if e, ok := c.meta.Probe(addr); ok && e.Dirty && e.Payload == node {
		// Re-adopted mid-eviction: the policy believes the node left the
		// cache, so re-establish its dirty tracking (records, bitmap,
		// shadow slot). Its contents match NVM, hence delta zero.
		cycles += c.policy.OnModify(e, true, 0)
	}
	c.FaultEvent(EvEviction, addr)
	return cycles, nil
}

// VerifyNodeLine decodes a node line and checks its HMAC against the
// counter its parent holds. An all-zero line under a zero parent counter
// is the valid initial state of a never-flushed node: a node cannot reach
// NVM without its first flush advancing the parent counter past zero.
func (c *Controller) VerifyNodeLine(level int, index uint64, b counter.Block, parentCounter uint64) (*sit.Node, uint64, error) {
	split := c.cfg.SplitLeaf && level == 0
	node := sit.DecodeNode(level, index, split, b)
	if parentCounter == 0 && b == (counter.Block{}) {
		return node, 0, nil
	}
	addr := c.lay.Geo.NodeAddr(level, index)
	lat := c.ChargeHash(1)
	c.Attribute(metrics.PhaseVerify, lat)
	if sit.NodeMACInto(&c.macMsg, c.cfg.MAC, c.cfg.Key, addr, node.CounterBytes(), parentCounter) != node.HMAC() {
		return nil, lat, TamperAt("SIT node", level, index, "HMAC mismatch on fetch")
	}
	return node, lat, nil
}

// NodeMAC computes the HMAC a node would carry under the given parent
// counter.
func (c *Controller) NodeMAC(n *sit.Node, parentCounter uint64) uint64 {
	addr := c.lay.Geo.NodeAddr(n.Level, n.Index)
	return sit.NodeMACInto(&c.macMsg, c.cfg.MAC, c.cfg.Key, addr, n.CounterBytes(), parentCounter)
}

// StaleNode decodes a node's current NVM image without timing or stats;
// recovery paths use it with their own accounting.
func (c *Controller) StaleNode(level int, index uint64) *sit.Node {
	line := c.dev.Peek(c.lay.Geo.NodeAddr(level, index))
	return sit.DecodeNode(level, index, c.cfg.SplitLeaf && level == 0, counter.Block(line))
}

// --- modification and eviction -------------------------------------------------

// SetParentCounter applies a parent-side counter update for a flushed or
// modified child, marks the parent dirty, and routes the change through
// the policy. delta is the FValue increase.
func (c *Controller) SetParentCounter(pe *cache.Entry[*sit.Node], slot int, val uint64, delta uint64) uint64 {
	wasClean := !pe.Dirty
	pe.Payload.SetCounter(slot, val)
	pe.Dirty = true
	return c.policy.OnModify(pe, wasClean, delta)
}

// SealAndWriteNode computes the victim's HMAC under the given parent
// counter and persists it through the write queue.
func (c *Controller) SealAndWriteNode(n *sit.Node, parentCounter uint64) uint64 {
	lat := c.ChargeHash(1)
	n.SetHMAC(c.NodeMAC(n, parentCounter))
	addr := c.lay.Geo.NodeAddr(n.Level, n.Index)
	stall := c.dev.MustWrite(c.reqStart, addr, nvmem.Line(n.Encode()), nvmem.ClassMeta)
	n.WritesSinceFlush = 0
	c.Attribute(metrics.PhaseVerify, lat)
	c.Attribute(metrics.PhaseWriteDrain, stall)
	return lat + stall
}

// WriteThroughNode persists a dirty cached node through the scheme's
// normal write-back path but keeps the (already trusted) copy resident
// and clean. Unlike FlushNode it does not invalidate the entry, so later
// accesses are served from cache rather than re-fetched through a parent
// chain that may not have resealed yet — a quarantined branch stays
// readable through its re-admitted slots while the deferred parent
// updates drain.
func (c *Controller) WriteThroughNode(e *cache.Entry[*sit.Node]) (uint64, error) {
	if !e.Dirty {
		return 0, nil
	}
	e.Dirty = false
	cycles, err := c.EvictDirtyNode(e.Payload)
	if err != nil {
		e.Dirty = true
		return cycles, err
	}
	return cycles, nil
}

// ClassicEvict is the classic SIT write-back shared by WB, ASIT and STAR:
// fetch the parent (verification chain on the critical path), advance its
// counter for the victim, seal the victim's HMAC with the new counter, and
// persist the victim. In eager mode the parent is already current, so its
// counter is read but not advanced.
func (c *Controller) ClassicEvict(victim *sit.Node) (uint64, error) {
	var cycles uint64
	var newPC uint64
	if c.lay.Geo.IsTop(victim.Level) {
		newPC = c.root.Counter(victim.Index)
		if !c.cfg.EagerUpdate {
			newPC++
			c.root.SetCounter(victim.Index, newPC)
		}
	} else {
		pl, pi, slot := c.lay.Geo.Parent(victim.Level, victim.Index)
		pe, pcyc, err := c.FetchNode(pl, pi)
		cycles += pcyc
		if err != nil {
			return cycles, err
		}
		newPC = pe.Payload.Counter(slot)
		if !c.cfg.EagerUpdate {
			newPC++
			cycles += c.SetParentCounter(pe, slot, newPC, 1)
		}
	}
	return cycles + c.SealAndWriteNode(victim, newPC), nil
}

// FlushNode forces a specific node out of the metadata cache, writing it
// back through the active scheme if dirty. Tests and examples use it to
// build precise flush epochs; it returns the write-back cost in cycles.
func (c *Controller) FlushNode(level int, index uint64) (uint64, error) {
	addr := c.lay.Geo.NodeAddr(level, index)
	e, ok := c.meta.Probe(addr)
	if !ok {
		return 0, nil
	}
	node, dirty := e.Payload, e.Dirty
	c.meta.Invalidate(addr)
	if !dirty {
		return 0, nil
	}
	return c.EvictDirtyNode(node)
}

// ForceAllDirty marks every cached node dirty through the policy funnel;
// the recovery-time evaluation (§IV-D) assumes all cached metadata are
// dirty at the crash.
func (c *Controller) ForceAllDirty() {
	c.meta.ForEach(func(e *cache.Entry[*sit.Node]) {
		wasClean := !e.Dirty
		e.Dirty = true
		c.policy.OnModify(e, wasClean, 0)
	})
}

// Close releases the per-line tables the controller and its device
// adopted from a restored state whose tables lie in a Backing, such as a
// checkpoint mapped from its file (the data tags here, the lines and wear
// through nvmem.Device.Close), so the mapping goes once nothing else holds
// it, and reports whether it released any. A controller that released its
// tables no longer holds its data: it must not serve again, and State
// refuses (ErrClosed) until a Restore. A controller over the Go heap
// releases nothing and keeps working.
func (c *Controller) Close() bool {
	tags := c.tags.Release()
	dev := c.dev.Close()
	c.released = c.released || tags || dev
	return tags || dev
}

// ErrClosed refuses State on a controller whose Close released its
// tables.
var ErrClosed = errors.New("memctrl: controller closed: the checkpoint tables it restored are released")

// --- crash and recovery ----------------------------------------------------------

// Crash models a power failure: the in-flight line write may tear at the
// media level (fault model), the policy flushes its ADR-domain lines, then
// all volatile controller state (the metadata cache) is lost. The NVM
// device, data tags (ECC bits), the on-chip root and the policy's on-chip
// non-volatile state survive.
func (c *Controller) Crash() {
	c.dev.CrashTear()
	c.policy.OnCrash()
	c.meta.Clear()
	// In-flight eviction tracking is volatile controller state; a crash
	// aborting a recovery pass can leave entries behind.
	c.evicting = c.evicting[:0]
	// The quarantine fence, its arbitration records and the re-admission
	// masks are durable on-chip state (the same NV class as the escalation
	// log): a verdict must outlive the crash that follows it, or a
	// replay-shaped fence detected purely through the LInc shortfall —
	// which recovery rebases once the verdict is rendered — would vanish
	// and the condemned data would be served as authentic. The next
	// recovery pass still re-arbitrates whatever damage remains on the
	// media; re-derived verdicts simply land on the same fence.
	c.crashed = true
}

// Recover rebuilds and verifies the metadata lost in the last Crash using
// the active scheme. A repeated call after a completed recovery (with no
// intervening crash) is idempotent: it returns the cached report without
// re-running the scheme's side effects. A successful report's TimeNS is the
// §IV-D cost model (Config.Recovery*NS) over the counts the scheme returns.
func (c *Controller) Recover() (RecoveryReport, error) {
	if c.recovered && !c.crashed {
		return c.lastRecovery, nil
	}
	rep, err := c.policy.Recover()
	if err == nil {
		rep.TimeNS = float64(rep.NVMReads)*c.cfg.RecoveryReadNS +
			float64(rep.NVMWrites)*c.cfg.RecoveryWriteNS +
			float64(rep.MACOps)*c.cfg.RecoveryHashNS
		c.lastRecovery = rep
		c.recovered = true
		c.crashed = false
	}
	return rep, err
}

// --- clocking -----------------------------------------------------------------

func (c *Controller) arrive(gap uint64) {
	c.arrival += gap
	// Closed loop: the core cannot run further ahead of the memory system
	// than its outstanding-miss window, so a backed-up controller slows
	// arrivals (stretching execution time) instead of queueing unboundedly.
	if c.busyUntil > c.cfg.RunAheadCycles && c.arrival < c.busyUntil-c.cfg.RunAheadCycles {
		c.arrival = c.busyUntil - c.cfg.RunAheadCycles
	}
	c.reqStart = max(c.arrival, c.busyUntil)
	c.bd = metrics.Breakdown{}
}

func (c *Controller) completeRead(cycles uint64)  { c.finishOp(false, cycles) }
func (c *Controller) completeWrite(cycles uint64) { c.finishOp(true, cycles) }

// finishOp retires the request in flight: it advances the makespan clock,
// normalizes the per-phase attribution against the actual service time, and
// folds both the latency and the phase split into the per-path stats.
//
// The makespan identity the attribution rests on: busyUntil advances by
// (idle + service) per request, where idle = reqStart - prevBusy, so the
// service buckets plus PhaseIdle partition MeasuredExecCycles exactly.
// PhaseQueueWait (reqStart - arrival) overlaps the service of preceding
// requests and is kept out of that partition; it is the per-request
// latency view.
func (c *Controller) finishOp(isWrite bool, cycles uint64) {
	prevBusy := c.busyUntil
	c.busyUntil = c.reqStart + cycles
	metrics.NormalizeService(&c.bd, cycles)
	c.bd[metrics.PhaseQueueWait] = c.reqStart - c.arrival
	c.bd[metrics.PhaseIdle] = c.reqStart - prevBusy
	lat := c.busyUntil - c.arrival
	phases := &c.stats.ReadPhases
	if isWrite {
		c.stats.DataWrites++
		c.stats.WriteLatSum += lat
		c.stats.WriteHist.Add(lat)
		phases = &c.stats.WritePhases
	} else {
		c.stats.DataReads++
		c.stats.ReadLatSum += lat
		c.stats.ReadHist.Add(lat)
	}
	for ph := range phases {
		phases[ph] += c.bd[ph]
	}
	if c.mx != nil && c.mx.Record(isWrite, &c.bd) {
		c.sample()
	}
	c.FaultEvent(EvOpRetired, 0)
}

// VerifyNVM walks every persisted tree node and checks its HMAC against
// the counter its parent currently holds (pending buffered counters first,
// then the cached parent, then the parent's NVM copy; the root for the top
// level). It is a test oracle: after any operation sequence the persisted
// tree must be self-consistent, or the next fetch of the offending node
// would fail. Cost is proportional to the tree, so only small
// configurations should call it.
func (c *Controller) VerifyNVM() error {
	geo := &c.lay.Geo
	for level := geo.Levels - 1; level >= 0; level-- {
		for idx := uint64(0); idx < geo.LevelNodes[level]; idx++ {
			addr := geo.NodeAddr(level, idx)
			line := counter.Block(c.dev.Peek(addr))
			var pc uint64
			if ov, ok := c.policy.ParentCounterOverride(level, idx); ok {
				pc = ov
			} else if geo.IsTop(level) {
				pc = c.root.Counter(idx)
			} else {
				pl, pi, slot := geo.Parent(level, idx)
				if pe, ok := c.meta.Probe(geo.NodeAddr(pl, pi)); ok {
					pc = pe.Payload.Counter(slot)
				} else {
					pc = c.StaleNode(pl, pi).Counter(slot)
				}
			}
			if pc == 0 && line == (counter.Block{}) {
				continue // initial state
			}
			node := sit.DecodeNode(level, idx, c.cfg.SplitLeaf && level == 0, line)
			if c.NodeMAC(node, pc) != node.HMAC() {
				return TamperAt("persisted SIT node", level, idx, "inconsistent with parent counter")
			}
		}
	}
	return nil
}
