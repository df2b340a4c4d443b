// Package steins implements the paper's contribution: a crash-consistency
// scheme for SGX-style integrity trees combining
//
//   - the counter-generation scheme of §III-B (parent counters derived
//     from child nodes via Eq. 1/Eq. 2, making stale nodes recoverable
//     from their persisted children),
//   - the offset-based tracking of §III-C (4-byte record entries, one per
//     metadata cache line, cached in an ADR region and flushed on crash),
//   - the LInc trust bases of §III-D (per-level totals of cached-counter
//     increase over NVM, held in a 64 B on-chip non-volatile register),
//   - the non-volatile parent-counter buffer of §III-E (removing parent
//     fetches from the write critical path), and
//   - the root-to-leaf recovery of §III-G with HMAC tamper checks and
//     LInc replay checks.
package steins

import (
	"encoding/binary"
	"fmt"

	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// bufSlotBytes is the modelled size of one non-volatile buffer slot (the
// flushed child and its generated parent counter f(child), for a child
// whose parent was not cached, §III-E step ③), so the 128 B buffer of
// Table I holds 8 entries.
const bufSlotBytes = 16

// recordLine is one 64 B offset record line: 16 entries of 4 bytes, each
// holding a node's metadata-region offset + 1 (zero means empty).
type recordLine [memctrl.RecordEntriesPerLine]uint32

// Policy is the Steins scheme.
type Policy struct {
	c        *memctrl.Controller
	linc     []uint64 // on-chip NV register: one LInc per NVM level
	buf      []memctrl.NodeCounter
	bufCap   int
	records  *cache.Cache[*recordLine] // ADR-cached record lines
	draining bool
	noBuf    bool // ablation: fetch parents synchronously at eviction
}

// Options tune Steins variants for the ablation benches.
type Options struct {
	// DisableNVBuffer forces parent fetches back onto the write critical
	// path (§III-E studies exactly this difference).
	DisableNVBuffer bool
}

// Factory builds a Steins policy; pass to memctrl.New.
func Factory(c *memctrl.Controller) memctrl.Policy {
	return FactoryWithOptions(Options{})(c)
}

// FactoryWithOptions builds a Steins policy variant.
func FactoryWithOptions(opts Options) memctrl.PolicyFactory {
	return func(c *memctrl.Controller) memctrl.Policy {
		cfg := c.Config()
		bufCap := cfg.NVBufferBytes / bufSlotBytes
		if bufCap < 1 {
			bufCap = 1
		}
		return &Policy{
			c:       c,
			linc:    make([]uint64, c.Layout().Geo.Levels),
			bufCap:  bufCap,
			noBuf:   opts.DisableNVBuffer,
			records: cache.New[*recordLine](cfg.RecordCacheLines*nvmem.LineSize, cfg.AuxCacheWays, nvmem.LineSize),
		}
	}
}

// Name implements memctrl.Policy.
func (p *Policy) Name() string {
	if p.c.Config().SplitLeaf {
		return "Steins-SC"
	}
	return "Steins-GC"
}

// CounterGen implements memctrl.Policy: parent counters are generated.
func (p *Policy) CounterGen() bool { return true }

// LIncs returns a copy of the per-level trust bases; tests and the
// invariant checker read it.
func (p *Policy) LIncs() []uint64 { return append([]uint64(nil), p.linc...) }

// BufferedEntries returns the occupancy of the non-volatile buffer.
func (p *Policy) BufferedEntries() int { return len(p.buf) }

// MetricsProbe implements memctrl.MetricsProber: the record-line cache
// fill fraction and a copy of the per-level trust bases, for the
// time-series sampler.
func (p *Policy) MetricsProbe() (float64, []uint64) {
	var fill float64
	if capacity := p.records.Capacity(); capacity > 0 {
		fill = float64(p.records.Len()) / float64(capacity)
	}
	return fill, p.LIncs()
}

// OnModify implements memctrl.Policy: fold the counter delta into the
// node's level increment (a register add) and, on a clean->dirty
// transition, track the node's offset in the record lines (§III-C). Dirty
// nodes turning clean are deliberately not untracked (§III-H: treating
// clean nodes as dirty is harmless).
func (p *Policy) OnModify(e *cache.Entry[*sit.Node], wasClean bool, delta uint64) uint64 {
	p.linc[e.Payload.Level] += delta
	cycles := uint64(1)
	if wasClean {
		cycles += p.trackDirty(e)
	}
	return cycles
}

// trackDirty records the node's metadata-region offset in the record entry
// for its cache slot. Record lines are cached in the controller's ADR
// region; misses fetch the line from NVM and may write back a dirty one.
func (p *Policy) trackDirty(e *cache.Entry[*sit.Node]) uint64 {
	lay := p.c.Layout()
	slot := e.Slot()
	lineIdx := uint64(slot) / memctrl.RecordEntriesPerLine
	pos := slot % memctrl.RecordEntriesPerLine
	recAddr := lay.RecordBase + lineIdx*nvmem.LineSize
	off := lay.Geo.Offset(e.Payload.Level, e.Payload.Index) + 1

	var cycles uint64
	re, ok := p.records.Lookup(recAddr)
	if !ok {
		// Record maintenance is fire-and-forget (§III-C): the line fill
		// occupies NVM bandwidth but the write does not block on it.
		const trackingIssueCycles = 20
		line, _, err := p.c.ReadLineRetried(p.c.Now(), recAddr, nvmem.ClassRecord)
		if err != nil {
			// A lost record line only widens the recovery search (clean
			// nodes treated as dirty are harmless, §III-H); start fresh.
			line = nvmem.Line{}
		}
		cycles += trackingIssueCycles
		rl := decodeRecordLine(nvmem.Line(line))
		var victim cache.Entry[*recordLine]
		var evicted bool
		re, victim, evicted = p.records.Insert(recAddr, rl, false)
		if evicted && victim.Dirty {
			cycles += p.c.Device().MustWrite(p.c.Now()+cycles, victim.Addr,
				encodeRecordLine(victim.Payload), nvmem.ClassRecord)
		}
	}
	re.Payload[pos] = off
	re.Dirty = true
	p.c.FaultEvent(memctrl.EvRecordAppend, recAddr)
	return cycles + 1
}

func decodeRecordLine(l nvmem.Line) *recordLine {
	rl := new(recordLine)
	for i := range rl {
		rl[i] = binary.LittleEndian.Uint32(l[i*4:])
	}
	return rl
}

func encodeRecordLine(rl *recordLine) nvmem.Line {
	var l nvmem.Line
	for i, v := range rl {
		binary.LittleEndian.PutUint32(l[i*4:], v)
	}
	return l
}

// EvictDirty implements memctrl.Policy (§III-E, Fig. 7): the victim's HMAC
// is computed from its own generated parent counter, so no parent fetch
// sits on the write critical path. If the parent is cached (or is the
// root) the counter and LIncs are updated in place; otherwise the
// generated counter parks in the non-volatile buffer.
func (p *Policy) EvictDirty(victim *sit.Node) (uint64, error) {
	newPC := victim.FValue()
	cycles := p.c.SealAndWriteNode(victim, newPC) + 2 // +2: generation adds
	k := victim.Level
	geo := &p.c.Layout().Geo
	if geo.IsTop(k) {
		delta := newPC - p.c.Root().Counter(victim.Index)
		p.linc[k] -= delta
		p.c.Root().SetCounter(victim.Index, newPC)
		return cycles, nil
	}
	pl, pi, slot := geo.Parent(k, victim.Index)
	if pe, ok := p.c.Meta().Probe(geo.NodeAddr(pl, pi)); ok {
		// Earlier flushes of this victim may still sit in the buffer from
		// when the parent was uncached; apply them first so the parent
		// counter never moves backwards.
		cycles += p.applyBuffered(k, victim.Index, pe, slot)
		delta := newPC - pe.Payload.Counter(slot)
		p.linc[k] -= delta
		cycles += p.c.SetParentCounter(pe, slot, newPC, delta)
		return cycles, nil
	}
	if p.noBuf {
		// Ablation variant: the parent fetch sits on the write critical
		// path, exactly the cost §III-E removes.
		pe, fc, err := p.c.FetchNodeAdoptingCondemned(pl, pi)
		cycles += fc
		if err != nil {
			return cycles, err
		}
		delta := newPC - pe.Payload.Counter(slot)
		p.linc[k] -= delta
		cycles += p.c.SetParentCounter(pe, slot, newPC, delta)
		return cycles, nil
	}
	p.buf = append(p.buf, memctrl.NodeCounter{NodeRef: memctrl.NodeRef{Level: k, Index: victim.Index}, Counter: newPC})
	if len(p.buf) >= p.bufCap {
		dc, err := p.drain()
		cycles += dc
		if err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// applyBuffered applies, in order, every buffered entry for one child
// against its now-cached parent entry and removes them from the buffer.
// SetParentCounter cannot re-enter the buffer (only evictions append), so
// in-place filtering is safe.
func (p *Policy) applyBuffered(level int, index uint64, pe *cache.Entry[*sit.Node], slot int) uint64 {
	var cycles uint64
	kept := p.buf[:0]
	for _, ent := range p.buf {
		if ent.Level != level || ent.Index != index {
			kept = append(kept, ent)
			continue
		}
		delta := ent.Counter - pe.Payload.Counter(slot)
		p.linc[level] -= delta
		cycles += p.c.SetParentCounter(pe, slot, ent.Counter, delta)
	}
	p.buf = kept
	return cycles
}

// drain applies every buffered parent-counter update: fetch the parent
// (off the write critical path), move the delta between the adjacent
// LIncs, and install the generated counter (§III-E steps ④-⑦).
func (p *Policy) drain() (uint64, error) {
	// Fetching a parent can evict another dirty node whose parent is also
	// uncached, appending to the buffer and asking for a drain again; the
	// outer drain loop picks those entries up, so the nested call is a
	// no-op rather than a double application.
	if p.draining {
		return 0, nil
	}
	p.draining = true
	defer func() { p.draining = false }()
	var cycles uint64
	geo := &p.c.Layout().Geo
	for len(p.buf) > 0 {
		ent := p.buf[0]
		pl, pi, slot := geo.Parent(ent.Level, ent.Index)
		// Re-admission flushes condemned leaves, handing the drain a
		// parent that may itself be the quarantined subtree's damaged
		// spine; the adopting fetch lets the update land and the spine
		// reseal instead of failing every read behind the re-admission.
		pe, fc, err := p.c.FetchNodeAdoptingCondemned(pl, pi)
		cycles += fc
		if err != nil {
			return cycles, err
		}
		// The parent fetch can evict the entry's child (re-adopted and
		// re-dirtied earlier), whose eviction applies this entry — and
		// possibly newer ones for the same child — via applyBuffered. If
		// the entry is gone, it has been applied; applying it again would
		// roll the parent counter backwards. Membership must be checked
		// by identity, and removal likewise: positions shift when nested
		// work compacts the buffer.
		idx := -1
		for i, e := range p.buf {
			if e == ent {
				idx = i
				break
			}
		}
		if idx == -1 {
			continue
		}
		delta := ent.Counter - pe.Payload.Counter(slot)
		p.linc[ent.Level] -= delta
		cycles += p.c.SetParentCounter(pe, slot, ent.Counter, delta)
		p.buf = append(p.buf[:idx], p.buf[idx+1:]...)
	}
	return cycles, nil
}

// ReconcileAdopted implements memctrl.AdoptReconciler: re-admission just
// adopted a condemned, non-verifying leaf image as counter base. The
// parent side still vouches the lost pre-damage FValue, so the adopted
// base and the parent-side chain disagree by an amount no write will ever
// close — left alone, the next recovery's conservation law breaks by
// exactly that gap and mass-fences innocent leaves. Move the parent side
// onto the adopted FValue through the normal update machinery: a cached
// parent takes the counter directly (its own level absorbs the delta via
// OnModify); an uncached one gets a buffered entry, with the child level's
// LInc raised by the gap so the eventual drain's subtraction balances —
// the discipline EvictDirty skips only because a flushed delta is already
// in the register, which an adoption gap never was. The buffer is not
// drained here even at capacity: a drain fetches (and verifies) parents,
// and re-admission must stay error-free; the next read or eviction drains.
func (p *Policy) ReconcileAdopted(e *cache.Entry[*sit.Node]) uint64 {
	n := e.Payload
	f := n.FValue()
	k := n.Level
	geo := &p.c.Layout().Geo
	if geo.IsTop(k) {
		p.c.Root().SetCounter(n.Index, f)
		return 1
	}
	pl, pi, slot := geo.Parent(k, n.Index)
	if pe, ok := p.c.Meta().Probe(geo.NodeAddr(pl, pi)); ok {
		cycles := p.applyBuffered(k, n.Index, pe, slot)
		delta := f - pe.Payload.Counter(slot)
		if delta == 0 {
			return cycles
		}
		return cycles + p.c.SetParentCounter(pe, slot, f, delta)
	}
	vouched, ok := p.ParentCounterOverride(k, n.Index)
	if !ok {
		vouched = p.c.StaleNode(pl, pi).Counter(slot)
	}
	if vouched == f {
		return 0
	}
	p.buf = append(p.buf, memctrl.NodeCounter{NodeRef: memctrl.NodeRef{Level: k, Index: n.Index}, Counter: f})
	p.linc[k] += f - vouched
	return 1
}

// BeforeRead implements memctrl.Policy: reads drain the buffer first, so
// read-path verification never consults it (§III-E step ④).
func (p *Policy) BeforeRead() (uint64, error) {
	if len(p.buf) == 0 {
		return 0, nil
	}
	return p.drain()
}

// ParentCounterOverride implements memctrl.Policy: a node with a pending
// buffered flush verifies against its buffered generated counter. The
// newest entry wins (a node can be flushed twice before a drain).
func (p *Policy) ParentCounterOverride(level int, index uint64) (uint64, bool) {
	for i := len(p.buf) - 1; i >= 0; i-- {
		if p.buf[i].Level == level && p.buf[i].Index == index {
			return p.buf[i].Counter, true
		}
	}
	return 0, false
}

// OnCrash implements memctrl.Policy: ADR residual power flushes the cached
// record lines into the NVM record region. The LIncs, the NV buffer and
// the root live in on-chip non-volatile registers and simply survive.
func (p *Policy) OnCrash() {
	p.records.ForEach(func(e *cache.Entry[*recordLine]) {
		if e.Dirty {
			p.c.Device().Poke(e.Addr, encodeRecordLine(e.Payload))
		}
	})
	p.records.Clear()
}

// Storage implements memctrl.Policy (§IV-E): the tree, the 16 KB-per-256 KB
// record region, and on chip only a 64 B LInc register plus the 128 B
// buffer — no cache-tree, no metadata cache tax.
func (p *Policy) Storage() memctrl.StorageOverhead {
	lay := p.c.Layout()
	return memctrl.StorageOverhead{
		TreeBytes:      lay.Geo.MetaBytes,
		NVMExtraBytes:  lay.RecordBytes,
		OnChipNVBytes:  64 + uint64(p.c.Config().NVBufferBytes),
		OnChipSRBytes:  uint64(p.c.Config().RecordCacheLines) * nvmem.LineSize,
		LeafCoverBytes: lay.Geo.LeafCover * 64,
	}
}

// InvariantError checks the LInc conservation law after any operation
// sequence: for every level k,
//
//	linc[k] = Σ dirty cached nodes at k (f(cached) - f(NVM))
//	        + Σ buffered entries for children at k (pending decrement)
//	        - Σ buffered entries for parents at k (pending increment)
//
// It returns nil when the law holds; tests call it as a property check.
func (p *Policy) InvariantError() error {
	geo := &p.c.Layout().Geo
	want := make([]int64, geo.Levels)
	p.c.Meta().ForEach(func(e *cache.Entry[*sit.Node]) {
		if !e.Dirty {
			return
		}
		n := e.Payload
		stale := p.c.StaleNode(n.Level, n.Index)
		want[n.Level] += int64(n.FValue()) - int64(stale.FValue())
	})
	// A buffered entry keeps the child level's LInc inflated by the flushed
	// delta until the drain moves it to the parent (where the parent's
	// dirty-sum rises by the same amount at the same moment, so the parent
	// level needs no pre-adjustment). Successive flushes of one child each
	// contribute their increment over the previous entry.
	type slotKey struct {
		level int
		index uint64
		slot  int
	}
	cur := make(map[slotKey]uint64)
	for _, ent := range p.buf {
		pl, pi, slot := geo.Parent(ent.Level, ent.Index)
		key := slotKey{pl, pi, slot}
		base, seen := cur[key]
		if !seen {
			if pe, ok := p.c.Meta().Probe(geo.NodeAddr(pl, pi)); ok {
				base = pe.Payload.Counter(slot)
			} else {
				base = p.c.StaleNode(pl, pi).Counter(slot)
			}
		}
		want[ent.Level] += int64(ent.Counter) - int64(base)
		cur[key] = ent.Counter
	}
	for k := range want {
		if int64(p.linc[k]) != want[k] {
			return fmt.Errorf("LInc invariant broken at level %d: register %d, state %d",
				k, int64(p.linc[k]), want[k])
		}
	}
	return nil
}
