// Package pipesit implements streamlined pipelined SIT updates with update
// coalescing, after Freij et al., "Streamlining Integrity Tree Updates for
// Secure Persistent Memory". Parent counters are generated from child
// contents (Eq. 1/Eq. 2), so a displaced dirty node seals and persists
// immediately under its own generated counter — no ancestor sits on the
// write critical path. The resulting parent-counter update enters a small
// on-chip non-volatile update pipeline instead of being applied
// synchronously, and in-flight updates to the SAME node coalesce: a second
// flush of a child before its pending update retires simply overwrites the
// pending counter, merging both updates into one parent write and one MAC
// recomputation. The pipeline advances (oldest update first) only when it
// is full, keeping a fixed depth of tree updates in flight.
//
// The trade-off the comparison matrix is after: pipesit streamlines the
// runtime update path even further than Steins (no offset records, no LInc
// maintenance, reads never drain), but without dirty tracking its recovery
// must reconstruct the ENTIRE tree from data blocks, SCUE-style — pipelined
// updates alone do not buy fast recovery.
package pipesit

import (
	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/scheme/rebuild"
	"steins/internal/sit"
)

// pipeSlotBytes is the modelled size of one in-flight pipeline slot (the
// flushed child and its generated parent counter f(child), newest flush
// wins), the size of a Steins buffer slot, so the Table I 128 B region
// holds 8 slots.
const pipeSlotBytes = 16

// Policy is the pipesit scheme.
type Policy struct {
	c *memctrl.Controller
	// pipe is the on-chip NV update pipeline, FIFO by first enqueue; at
	// most one slot per (level, index) — re-flushes coalesce in place.
	pipe []memctrl.NodeCounter
	cap  int
	// recoveryRoot is the on-chip NV register: total increments applied to
	// leaf counters (the SCUE register), anchoring full-tree recovery.
	recoveryRoot uint64
	draining     bool
}

// Factory builds a pipesit policy; pass to memctrl.New.
func Factory(c *memctrl.Controller) memctrl.Policy {
	depth := c.Config().NVBufferBytes / pipeSlotBytes
	if depth < 1 {
		depth = 1
	}
	return &Policy{c: c, cap: depth}
}

// Name implements memctrl.Policy.
func (p *Policy) Name() string {
	if p.c.Config().SplitLeaf {
		return "PipeSIT-SC"
	}
	return "PipeSIT-GC"
}

// CounterGen implements memctrl.Policy: parent counters are generated, the
// property that lets a flush seal without touching its parent.
func (p *Policy) CounterGen() bool { return true }

// RecoveryRoot returns the register value (tests use it).
func (p *Policy) RecoveryRoot() uint64 { return p.recoveryRoot }

// PipelineLen returns the number of in-flight coalesced updates.
func (p *Policy) PipelineLen() int { return len(p.pipe) }

// OnModify implements memctrl.Policy: leaf increments fold into the
// recovery register; everything else is a register add.
func (p *Policy) OnModify(e *cache.Entry[*sit.Node], _ bool, delta uint64) uint64 {
	if e.Payload.Level == 0 {
		p.recoveryRoot += delta
	}
	return 1
}

// EvictDirty implements memctrl.Policy: seal and persist under the victim's
// own generated counter, then hand the parent update to the coalescing
// pipeline. Top-level flushes land in the on-chip root directly. The parent
// update is ALWAYS pipelined — even a cached parent is updated off the
// critical path — which is exactly the streamlining the scheme is named
// for.
func (p *Policy) EvictDirty(victim *sit.Node) (uint64, error) {
	newPC := victim.FValue()
	cycles := p.c.SealAndWriteNode(victim, newPC) + 1 // +1: pipeline insert
	geo := &p.c.Layout().Geo
	if geo.IsTop(victim.Level) {
		p.c.Root().SetCounter(victim.Index, newPC)
		return cycles, nil
	}
	if i := p.slot(victim.Level, victim.Index); i >= 0 {
		// Coalesce: merge this flush into the in-flight update before its
		// parent MAC is recomputed. One parent write retires both.
		p.pipe[i].Counter = newPC
		return cycles, nil
	}
	p.pipe = append(p.pipe, memctrl.NodeCounter{NodeRef: memctrl.NodeRef{Level: victim.Level, Index: victim.Index}, Counter: newPC})
	for len(p.pipe) >= p.cap && !p.draining {
		dc, err := p.retireOldest()
		cycles += dc
		if err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// slot finds the pipeline slot holding a child's in-flight update.
func (p *Policy) slot(level int, index uint64) int {
	for i := range p.pipe {
		if p.pipe[i].Level == level && p.pipe[i].Index == index {
			return i
		}
	}
	return -1
}

// retireOldest advances the pipeline by one update: fetch the parent (off
// the write critical path), apply the newest coalesced counter, and free
// the slot. Fetching the parent can evict other dirty nodes, which append
// to (or coalesce into) the pipeline; the nested drain guard keeps those
// re-entries from recursing, and the entry is re-read after the fetch so a
// coalesce that raced the parent fetch still wins.
func (p *Policy) retireOldest() (uint64, error) {
	if p.draining || len(p.pipe) == 0 {
		return 0, nil
	}
	p.draining = true
	defer func() { p.draining = false }()
	ent := p.pipe[0]
	geo := &p.c.Layout().Geo
	pl, pi, slot := geo.Parent(ent.Level, ent.Index)
	pe, cycles, err := p.c.FetchNode(pl, pi)
	if err != nil {
		return cycles, err
	}
	// Only retirement removes slots (nested drains are guarded), so the
	// entry is still at its position; its counter may have coalesced upward
	// while the parent was fetched.
	i := p.slot(ent.Level, ent.Index)
	cur := p.pipe[i].Counter
	delta := cur - pe.Payload.Counter(slot)
	cycles += p.c.SetParentCounter(pe, slot, cur, delta)
	p.pipe = append(p.pipe[:i], p.pipe[i+1:]...)
	return cycles, nil
}

// BeforeRead implements memctrl.Policy: reads never drain the pipeline —
// verification of a child with an in-flight update uses the pending
// counter via ParentCounterOverride, so the pipeline stays full and deep.
func (p *Policy) BeforeRead() (uint64, error) { return 0, nil }

// ParentCounterOverride implements memctrl.Policy: a child with an
// in-flight update verifies against its coalesced pending counter (there
// is at most one slot per child, always the newest flush).
func (p *Policy) ParentCounterOverride(level int, index uint64) (uint64, bool) {
	if i := p.slot(level, index); i >= 0 {
		return p.pipe[i].Counter, true
	}
	return 0, false
}

// OnCrash implements memctrl.Policy: the pipeline and the recovery register
// live in on-chip non-volatile registers and simply survive.
func (p *Policy) OnCrash() {}

// Recover implements memctrl.Policy: without dirty tracking every leaf
// might be stale, so the whole tree is reconstructed from data blocks
// exactly as SCUE does, checked against the recovery register. A pipelined
// update still in flight is subsumed: its child's persisted image carries
// the same counters the update would have installed in the parent, and the
// summation rebuild recomputes every parent from those images, so the
// pipeline is simply cleared once the rebuild lands.
func (p *Policy) Recover() (memctrl.RecoveryReport, error) {
	rep := memctrl.RecoveryReport{Scheme: p.Name()}
	degraded := p.c.Config().DegradedRecovery
	rec, err := rebuild.LeavesFromData(p.c, &rep, degraded)
	if err != nil {
		return rep, err
	}
	reg, err := rebuild.CheckRegister(p.c, &rep, rec, p.recoveryRoot, degraded)
	if err != nil {
		return rep, err
	}
	p.recoveryRoot = reg
	rebuild.WriteBack(p.c, &rep, rec.Leaves, true)
	p.pipe = p.pipe[:0]
	return rep, nil
}

// Storage implements memctrl.Policy: the tree, the 8 B register and the
// 128 B update pipeline.
func (p *Policy) Storage() memctrl.StorageOverhead {
	lay := p.c.Layout()
	return memctrl.StorageOverhead{
		TreeBytes:      lay.Geo.MetaBytes,
		OnChipNVBytes:  8 + uint64(p.c.Config().NVBufferBytes),
		LeafCoverBytes: lay.Geo.LeafCover * 64,
	}
}
