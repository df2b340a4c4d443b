// Package scue implements the SCUE baseline (Huang & Hua, HPCA'23).
// SCUE keeps only a Recovery_root — the running sum of every leaf-counter
// increment — in an on-chip non-volatile register, so its runtime cost is
// near zero; but recovery must reconstruct the ENTIRE tree from all leaf
// nodes, which scales with memory capacity rather than metadata cache size
// ("hour-scale for TB memory", §II-D). The paper therefore excludes SCUE
// from its performance comparison; this package exists to reproduce that
// motivation quantitatively.
//
// Like Steins, SCUE derives parent counters by summation, which is what
// makes bottom-up reconstruction possible.
package scue

import (
	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/scheme/rebuild"
	"steins/internal/sit"
)

// Policy is the SCUE scheme.
type Policy struct {
	c *memctrl.Controller
	// recoveryRoot is the on-chip NV register: total increments applied to
	// leaf counters, i.e. the expected sum of all leaf FValues.
	recoveryRoot uint64
}

// Factory builds a SCUE policy; pass to memctrl.New.
func Factory(c *memctrl.Controller) memctrl.Policy { return &Policy{c: c} }

// Name implements memctrl.Policy.
func (p *Policy) Name() string {
	if p.c.Config().SplitLeaf {
		return "SCUE-SC"
	}
	return "SCUE-GC"
}

// CounterGen implements memctrl.Policy: SCUE generates parent counters by
// summation so the tree can be rebuilt from the leaves.
func (p *Policy) CounterGen() bool { return true }

// RecoveryRoot returns the register value (tests use it).
func (p *Policy) RecoveryRoot() uint64 { return p.recoveryRoot }

// OnModify implements memctrl.Policy: leaf increments fold into the
// Recovery_root; everything else is free — SCUE's high runtime performance.
func (p *Policy) OnModify(e *cache.Entry[*sit.Node], _ bool, delta uint64) uint64 {
	if e.Payload.Level == 0 {
		p.recoveryRoot += delta
	}
	return 1
}

// EvictDirty implements memctrl.Policy: generated-counter write-back with
// the parent fetched on the critical path (SCUE has no deferral buffer).
func (p *Policy) EvictDirty(victim *sit.Node) (uint64, error) {
	c := p.c
	geo := &c.Layout().Geo
	newPC := victim.FValue()
	cycles := c.SealAndWriteNode(victim, newPC)
	if geo.IsTop(victim.Level) {
		c.Root().SetCounter(victim.Index, newPC)
		return cycles, nil
	}
	pl, pi, slot := geo.Parent(victim.Level, victim.Index)
	pe, pcyc, err := c.FetchNode(pl, pi)
	cycles += pcyc
	if err != nil {
		return cycles, err
	}
	delta := newPC - pe.Payload.Counter(slot)
	cycles += c.SetParentCounter(pe, slot, newPC, delta)
	return cycles, nil
}

// BeforeRead implements memctrl.Policy.
func (p *Policy) BeforeRead() (uint64, error) { return 0, nil }

// ParentCounterOverride implements memctrl.Policy.
func (p *Policy) ParentCounterOverride(int, uint64) (uint64, bool) { return 0, false }

// OnCrash implements memctrl.Policy: only the register survives.
func (p *Policy) OnCrash() {}

// Recover implements memctrl.Policy: rebuild the whole tree bottom-up.
// Every leaf is restored from its covered data blocks (there is no dirty
// tracking, so every leaf might be stale), the total leaf sum is compared
// with Recovery_root, and every interior node is recomputed by summation.
// Cost scales with the full tree, not the metadata cache.
func (p *Policy) Recover() (memctrl.RecoveryReport, error) {
	rep := memctrl.RecoveryReport{Scheme: p.Name()}
	degraded := p.c.Config().DegradedRecovery
	rec, err := rebuild.LeavesFromData(p.c, &rep, degraded)
	if err != nil {
		return rep, err
	}
	// The rebuilt leaf total is exact (MAC-proven or hint-pinned), so the
	// Recovery_root equality is a conservation law: a residual no
	// unpinnable media loss explains condemns the whole tree rather than
	// being forgiven. The register follows the written-back total when
	// recovery proceeds past a mismatch.
	reg, err := rebuild.CheckRegister(p.c, &rep, rec, p.recoveryRoot, degraded)
	if err != nil {
		return rep, err
	}
	p.recoveryRoot = reg
	rebuild.WriteBack(p.c, &rep, rec.Leaves, true)
	return rep, nil
}

// Storage implements memctrl.Policy: just the tree and an 8 B register.
func (p *Policy) Storage() memctrl.StorageOverhead {
	lay := p.c.Layout()
	return memctrl.StorageOverhead{
		TreeBytes:      lay.Geo.MetaBytes,
		OnChipNVBytes:  8,
		LeafCoverBytes: lay.Geo.LeafCover * 64,
	}
}
