package steins

import (
	"fmt"
	"math"

	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// Degraded recovery (media-fault tolerance). Steins' sealing discipline
// gives every persisted node a self-verifying image: EvictDirty seals each
// victim under its OWN generated counter (FValue), so a node n persisted by
// any scheme path satisfies NodeMAC(n, n.FValue()) == n.HMAC(). A node
// whose image fails that check was corrupted on the media (or tampered
// with), and — uniquely under counter generation — its counters are pure
// functions of its children (Eq. 1/2), so an interior node with intact
// children can be rebuilt in place: regenerate every counter from the
// persisted child images, re-derive the HMAC under the node's own new
// FValue, and write the healed line back. The healed image is checked for
// chain consistency against the trusted parent-side counter when one is
// available; a mismatch means the children themselves are suspect and the
// whole subtree is quarantined instead.
//
// Corrupted leaves cannot be healed (their counters live nowhere else:
// data-block tag hints only bound a search window) and are quarantined.

// selfConsistent reports whether a persisted node image verifies under its
// own generated counter — the Steins sealing invariant. The all-zero image
// of a never-persisted node is trivially consistent.
func (p *Policy) selfConsistent(st *recoveryState, n *sit.Node) bool {
	if n.Encode() == (counter.Block{}) {
		return true
	}
	st.report.MACOps++
	return p.c.NodeMAC(n, n.FValue()) == n.HMAC()
}

// healNode attempts to rebuild a corrupted persisted node from its children
// and returns the healed image, or the original corrupt image after
// quarantining its subtree when healing is impossible. Child reads go
// through staleOf, so corrupted non-leaf children heal recursively first.
func (p *Policy) healNode(st *recoveryState, n *sit.Node) *sit.Node {
	if n.Level == 0 {
		// Leaf counters are not a function of other persisted NODES, but
		// they ARE recoverable from the covered data blocks when those are
		// intact: rebuildLeaf heals a media-damaged leaf line from its
		// authenticated data, keeping the LInc delta exactly accountable.
		// Only when that fails is the leaf's coverage quarantined.
		if rebuilt := p.rebuildLeaf(st, n); rebuilt != nil {
			return rebuilt
		}
		p.quarantineDamaged(st, n.Level, n.Index)
		return n
	}
	if len(st.rollbackSlots(n.Level, n.Index)) > 0 {
		// A buffered flush still targets this node: its persisted image
		// predates the child's flush, so regeneration from the current
		// children cannot reproduce the lost pre-flush slot values.
		p.quarantineDamaged(st, n.Level, n.Index)
		return n
	}
	geo := &p.c.Layout().Geo
	healed := &sit.Node{Level: n.Level, Index: n.Index}
	for i := 0; i < counter.Arity; i++ {
		childIdx := n.Index*counter.Arity + uint64(i)
		if childIdx >= geo.LevelNodes[n.Level-1] {
			continue
		}
		child := p.staleOf(st, n.Level-1, childIdx)
		if st.has(n.Level-1, childIdx, recQuarRoot) {
			// The child could not be healed either; the regenerated
			// counter would be garbage.
			p.quarantineDamaged(st, n.Level, n.Index)
			return n
		}
		healed.SetCounter(i, child.FValue())
	}
	if st.has(n.Level, n.Index, recDirty) {
		// The node was dirty in the crash-time cache: children may have
		// been flushed after this image was persisted, so the regenerated
		// counters describe the cache image, not the lost stale snapshot.
		// When the parent side still names the lost image's exact FValue,
		// the LInc delta stays exactly accountable (healedBase) and the
		// equality needs no excuse. Otherwise arbitrate: a recorded media
		// fault on the node's line excuses this level's equality; a damaged
		// line NO media fault explains is attack-shaped, and the subtree
		// quarantines instead of laundering the unknowable delta through a
		// forgiven LInc.
		if base, ok := p.exactStaleBase(st, n.Level, n.Index); ok {
			st.setHealedBase(n.Level, n.Index, base)
		} else {
			ev := p.nodeEvidence(n.Level, n.Index)
			if !ev.Persistent() {
				p.quarantineSubtree(st, n.Level, n.Index, memctrl.CauseAmbiguous, ev.String())
				return n
			}
			st.excuseLInc(n.Level)
		}
	} else if pc, ok := p.trustedCounterNoHeal(st, n.Level, n.Index); ok && pc != 0 {
		// Chain consistency: an untracked clean node's parent slot holds
		// f(node at its last persist) = f(current persisted children).
		if pc != healed.FValue() {
			p.quarantineDamaged(st, n.Level, n.Index)
			return n
		}
	}
	st.report.MACOps++
	healed.SetHMAC(p.c.NodeMAC(healed, healed.FValue()))
	st.report.NVMWrites++
	p.c.Device().Poke(geo.NodeAddr(n.Level, n.Index), nvmem.Line(healed.Encode()))
	st.report.Degradation.Healed = append(st.report.Degradation.Healed,
		memctrl.NodeRef{Level: n.Level, Index: n.Index})
	st.rec(n.Level, n.Index).flags |= recVerified
	return healed
}

// rebuildLeaf attempts the data-driven heal of a damaged leaf node line.
// Leaf counters are not derivable from other nodes, but every covered data
// block authenticates only under its exact write counter, so intact data
// pins the crash-time leaf image: each slot's counter is recovered by a
// hint-anchored search bounded by the level's total unflushed increment.
// The lost stale image's FValue survives on the trusted parent side
// (exactStaleBase), which keeps the leaf's LInc delta exactly accountable —
// the heal needs no equality excuse, so a concurrent data replay elsewhere
// on the level still surfaces as an unexcused shortfall. The rebuild itself
// arbitrates: authenticated data whose FValue regressed below the trusted
// stale base (or diverged from it on a clean leaf) is definitive replay
// evidence and quarantines replay-shaped. Returns nil when the heal is not
// possible (no media evidence, no exact base, damaged data) — the caller
// falls back to the quarantine path.
func (p *Policy) rebuildLeaf(st *recoveryState, n *sit.Node) *sit.Node {
	geo := &p.c.Layout().Geo
	ev := p.nodeEvidence(0, n.Index)
	if !ev.Persistent() {
		// Evidence-free damage earns no reconstruction: healing state an
		// attacker shaped would launder the tamper into a clean tree.
		return nil
	}
	base, ok := p.exactStaleBase(st, 0, n.Index)
	if !ok {
		return nil
	}
	rebuilt := &sit.Node{Level: 0, Index: n.Index, IsSplit: geo.SplitLeaf}
	if geo.SplitLeaf {
		if !p.rebuildSplitLeafCounters(st, rebuilt) {
			return nil
		}
	} else if !p.rebuildLeafCounters(st, rebuilt, base) {
		return nil
	}
	f := rebuilt.FValue()
	dirty := st.has(0, n.Index, recDirty)
	if f < base || (!dirty && f != base) {
		// The data authenticates, yet its counters sit below the FValue the
		// parent side vouches the leaf reached at its last flush (or, for a
		// clean leaf, disagree with it): authentic-stale state was put back
		// after newer state existed. That is replay, not media loss.
		p.quarantineSubtree(st, 0, n.Index, memctrl.CauseReplayShaped,
			fmt.Sprintf("rebuilt leaf FValue %d vs trusted stale %d (line: %s)", f, base, ev.String()))
		return nil
	}
	if dirty {
		st.setHealedBase(0, n.Index, base)
	}
	st.report.MACOps++
	rebuilt.SetHMAC(p.c.NodeMAC(rebuilt, f))
	st.report.NVMWrites++
	p.c.Device().Poke(geo.NodeAddr(0, n.Index), nvmem.Line(rebuilt.Encode()))
	st.report.Degradation.Healed = append(st.report.Degradation.Healed,
		memctrl.NodeRef{Level: 0, Index: n.Index})
	st.rec(0, n.Index).flags |= recVerified
	return rebuilt
}

// rebuildLeafCounters recovers a general leaf's slot counters from its
// covered data blocks with no stale floor: candidates congruent to the tag
// hint are checked in increasing order up to base + LInc[0] (a slot counter
// never exceeds the leaf's crash FValue, itself at most the stale base plus
// the level's total unflushed increment). Each slot's first candidate, the
// hint itself, is checked in one batch; a miss searches on from the hint.
func (p *Policy) rebuildLeafCounters(st *recoveryState, node *sit.Node, base uint64) bool {
	bound := base + p.linc[0] + cme.GCHintMask
	l := &st.leaf
	eng := p.c.Engine()
	eng.CheckHints(l, p.c.ReadLeafData(node.Index, l))
	for i := range int(p.c.Layout().Geo.LeafCover) {
		st.report.NVMReads++
		tag := l.Tag[i]
		if !tag.Written {
			continue // never written: the counter never advanced from zero
		}
		if tag.Hint > bound {
			return false // the hint names no candidate
		}
		// The candidates are tag.Hint, tag.Hint + GCHintMask+1, ... up to
		// bound. A hit on the hint costs the one MAC the search would have
		// spent on it; a miss searches from the hint again, so its tries
		// are the search's.
		steps := min((bound-tag.Hint)/(cme.GCHintMask+1)+1, math.MaxInt)
		ctr, tried, ok := eng.RecoverSlotGC(l, i, int(steps))
		st.report.MACOps += max(uint64(tried), 1)
		if !ok {
			return false
		}
		node.SetCounter(i, ctr)
	}
	return true
}

// rebuildSplitLeafCounters recovers a split leaf's (major, minor) counters
// from its covered data blocks: all written blocks must agree on one major
// (carried in full by every tag hint), minors come from the per-block
// search after one batched check of the hinted counters. No stale floor is
// needed — the major is explicit and the minor space is exhaustively small.
func (p *Policy) rebuildSplitLeafCounters(st *recoveryState, node *sit.Node) bool {
	l := &st.leaf
	written := p.c.ReadLeafData(node.Index, l)
	eng := p.c.Engine()
	eng.CheckHints(l, written)
	var major uint64
	haveWritten := false
	for i := range counter.SplitArity {
		st.report.NVMReads++
		tag := l.Tag[i]
		if !tag.Written {
			continue
		}
		if h := tag.Hint >> 6; !haveWritten {
			major, haveWritten = h, true
		} else if h != major {
			return false
		}
		m, minor, macOps, ok := eng.RecoverSlotSC(l, i)
		st.report.MACOps += macOps
		if !ok || m != major {
			return false
		}
		node.Split.Minor[i] = minor
	}
	node.Split.Major = major
	return true
}

// exactStaleBase returns the FValue the parent side vouches for (level,
// index)'s persisted stale image, but only from sources that name it
// EXACTLY: a pending NV-buffer flush entry (the buffered counter IS the
// FValue of the image that flush persisted), the on-chip root, or a CLEAN
// self-consistent parent's slot. A dirty parent's persisted slot may lag
// the child's last flush (the update lived only in the lost cache), and an
// under-estimated base would inflate the delta into a false replay verdict
// — so dirty parents yield no base and the caller falls back to the
// excuse-or-quarantine arbitration.
func (p *Policy) exactStaleBase(st *recoveryState, level int, index uint64) (uint64, bool) {
	geo := &p.c.Layout().Geo
	if ov, ok := p.ParentCounterOverride(level, index); ok {
		return ov, true
	}
	if geo.IsTop(level) {
		return p.c.Root().Counter(index), true
	}
	pl, pi, slot := geo.Parent(level, index)
	if st.has(pl, pi, recDirty) {
		return 0, false
	}
	st.report.NVMReads++
	parent := p.c.StaleNode(pl, pi)
	if !p.selfConsistent(st, parent) {
		return 0, false
	}
	return parent.Counter(slot), true
}

// trustedCounterNoHeal fetches the parent-side counter for (level, index)
// from sources that need no upward healing: the NV buffer override, the
// on-chip root, an already-recovered parent, a memoised (and healed) stale
// parent, or a self-consistent parent peek. ok is false when the parent
// itself is corrupt and not yet healed — the caller defers the check.
func (p *Policy) trustedCounterNoHeal(st *recoveryState, level int, index uint64) (uint64, bool) {
	geo := &p.c.Layout().Geo
	if ov, ok := p.ParentCounterOverride(level, index); ok {
		return ov, true
	}
	if geo.IsTop(level) {
		return p.c.Root().Counter(index), true
	}
	pl, pi, slot := geo.Parent(level, index)
	if r := st.peek(pl, pi); r != nil {
		switch {
		case r.recovered != nil:
			return r.recovered.Counter(slot), true
		case r.stale != nil && r.flags&recQuarRoot != 0:
			return 0, false
		case r.stale != nil:
			return r.stale.Counter(slot), true
		}
	}
	parent := p.c.StaleNode(pl, pi)
	if p.selfConsistent(st, parent) {
		return parent.Counter(slot), true
	}
	return 0, false
}

// quarantineSubtree gives up on the subtree rooted at (level, index): every
// covered data leaf is quarantined on the controller (accesses return a
// typed QuarantineError), and the report records the root, the arbitration
// verdict and the data-loss bound. The LInc treatment of the affected
// levels depends on the verdict: media-explained damage excuses the
// equality (the hidden increments are genuine loss), while replay-shaped or
// ambiguous damage merely marks the level arbitrated — the quarantine
// itself is the detection.
func (p *Policy) quarantineSubtree(st *recoveryState, level int, index uint64, cause memctrl.QuarantineCause, evidence string) {
	p.quarantineCore(st, level, index, cause, evidence)
	// The subtree's increments go unaccounted: its own delta is dropped and
	// its dirty descendants are skipped, so every level from the root's own
	// down to the leaves stops being exactly checkable.
	if cause.MediaExplained() {
		st.excuseThrough(level)
	} else {
		st.arbThrough(level)
	}
}

// quarantineAccounted fences a subtree whose DATA is lost to a recorded
// media fault but whose increment contribution was reconstructed exactly:
// the levels stay exactly checkable, so no equality is excused — which is
// precisely what keeps a concurrent replay elsewhere detectable.
func (p *Policy) quarantineAccounted(st *recoveryState, level int, index uint64, cause memctrl.QuarantineCause, evidence string) {
	p.quarantineCore(st, level, index, cause, evidence)
}

// quarantineCore applies the controller-side fence and records the verdict
// once per subtree root; the excuse/arbitration marks are the caller's.
func (p *Policy) quarantineCore(st *recoveryState, level int, index uint64, cause memctrl.QuarantineCause, evidence string) {
	r := st.rec(level, index)
	if r.flags&recQuarRoot != 0 {
		return
	}
	r.flags |= recQuarRoot
	p.c.QuarantineSubtree(level, index, cause, evidence, &st.report.Degradation)
}

// quarantineDamaged quarantines a node whose persisted image is damaged
// beyond healing, with the cause arbitrated from the node's own line
// evidence: a recorded persistent media fault explains the damage (degraded
// loss); a damaged line nothing explains is ambiguous and quarantines as
// attack-shaped.
func (p *Policy) quarantineDamaged(st *recoveryState, level int, index uint64) {
	ev := p.nodeEvidence(level, index)
	cause, ok := memctrl.MediaCause(ev)
	if !ok {
		cause = memctrl.CauseAmbiguous
	}
	p.quarantineSubtree(st, level, index, cause, ev.String())
}

// nodeEvidence gathers the recorded media evidence for a node's own line.
func (p *Policy) nodeEvidence(level int, index uint64) memctrl.EvidenceSummary {
	return p.c.EvidenceAt(p.c.Layout().Geo.NodeAddr(level, index))
}

// arbitrateFailure attributes a recovery failure at (level, index) against
// recorded media evidence via the controller's shared arbitration: the
// node's own line first, then the failing data line when the error names
// one; unexplained damage is replay-shaped or ambiguous.
func (p *Policy) arbitrateFailure(level int, index uint64, err error) (memctrl.QuarantineCause, string) {
	return p.c.ArbitrateFailure(level, index, err)
}

// quarantineReplayShaped handles a quiet LInc regression: every tracked
// node at the level recovered cleanly, yet the level increment disagrees
// with the crash-time LInc and no recorded media fault supports hidden
// damage. The regression is replay-shaped; the level's suspect dirty nodes
// (those not already fenced) are quarantined and dropped from
// reinstatement. Returns false when no suspect was left to pin it on.
func (p *Policy) quarantineReplayShaped(st *recoveryState, k int) bool {
	any := false
	for _, idx := range st.dirty[k] {
		if p.underQuarantine(st, k, idx) {
			continue
		}
		ev := p.nodeEvidence(k, idx)
		p.quarantineSubtree(st, k, idx, memctrl.CauseReplayShaped, ev.String())
		st.rec(k, idx).recovered = nil
		any = true
	}
	return any
}

// underQuarantine reports whether the node or any ancestor is a quarantined
// subtree root.
func (p *Policy) underQuarantine(st *recoveryState, level int, index uint64) bool {
	geo := &p.c.Layout().Geo
	for {
		if st.has(level, index, recQuarRoot) {
			return true
		}
		if geo.IsTop(level) {
			return false
		}
		level, index, _ = geo.Parent(level, index)
	}
}

// scrub is the degraded-mode self-healing sweep: after the tracked nodes
// are reconstructed, every persisted interior node is checked against the
// sealing invariant and corrupted ones are healed (or their subtrees
// quarantined). Levels run top-down so a healed parent is in place before
// its children consult it; corrupted leaves need no sweep — a corrupt leaf
// fails verification on its first runtime fetch, which is detection, not
// silent corruption.
func (p *Policy) scrub(st *recoveryState) {
	geo := &p.c.Layout().Geo
	for k := geo.Levels - 1; k >= 1; k-- {
		for idx := uint64(0); idx < geo.LevelNodes[k]; idx++ {
			if p.underQuarantine(st, k, idx) {
				continue
			}
			p.staleOf(st, k, idx)
		}
	}
}
