package steins

import (
	"fmt"
	"slices"

	"steins/internal/arena"
	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// recoveryState carries the bookkeeping of one Recover pass.
type recoveryState struct {
	report memctrl.RecoveryReport
	// nodes holds every node's bookkeeping, keyed by the node's offset in
	// the metadata region (levelOff[level] + index), so a lookup is an
	// arena probe instead of a map hash; memory follows the touched nodes.
	nodes    arena.T[nodeRec]
	levelOff []uint64   // per level: offset of the level's node 0
	dirty    [][]uint64 // per level: nodes to regenerate, ascending
	rollback []rollback // parent slots with pending buffered flushes
	bufInc   []int64    // per level: pending buffered-increment chain

	// Degraded-mode bookkeeping (heal.go); inert when degraded is false.
	degraded bool
	// The LInc equality at a level can stop being exactly checkable for two
	// very different reasons, and the evidence arbitration keeps them apart.
	// excused marks levels where recorded MEDIA evidence (torn lines, stuck
	// cells, uncorrectable/escalated ECC) explains hidden increments — the
	// damage heals or quarantines as degraded loss. arbed marks levels where
	// a REPLAY-SHAPED or ambiguous quarantine was already applied — the
	// verdict stands and its fence is the detection. Both are per-level
	// EXACT sets, not high-water bands: a quarantined subtree disturbs its
	// own level and every level below (its dirty descendants are skipped),
	// but an in-place heal disturbs only the healed node's own level — a
	// band would let a level-2 heal launder a leaf-level data replay. A
	// shortfall at a level in neither set is a quiet regression no media
	// fault supports: replay-shaped, and the suspect dirty nodes of that
	// level are quarantined instead of forgiven.
	excused []bool
	arbed   []bool

	// leaf is the scratch of every leaf the pass reads from its data
	// (regeneration and the data-driven heal), one leaf at a time.
	leaf cme.Leaf
}

// nodeRec is one tree node's bookkeeping in a Recover pass.
type nodeRec struct {
	stale     *sit.Node // memoised stale read; nil until read
	recovered *sit.Node // regenerated crash-time image; nil if none
	inc       int64     // the recovered node's increment over its base
	// healedBase carries the trusted stale FValue of a node healed in
	// place (flag recHealedBase): the heal regenerates the node from
	// children or data, losing the persisted pre-damage image, but the
	// parent side still names its exact FValue, so the node's LInc delta
	// stays exactly accountable.
	healedBase uint64
	place      int32 // record position (= cache slot) of a dirty node
	flags      recFlags
}

// recFlags are the per-node facts of a Recover pass.
type recFlags uint8

const (
	recDirty      recFlags = 1 << iota // tracked by a record entry
	recVerified                        // stale image already chain-verified
	recQuarRoot                        // quarantined subtree root
	recHealedBase                      // healedBase is set
)

// rollback lists the slots of one parent whose child flushes still sit in
// the NV buffer.
type rollback struct {
	level int
	index uint64
	slots []int
}

// rec returns the node's bookkeeping, creating it on first touch.
func (st *recoveryState) rec(level int, index uint64) *nodeRec {
	return st.nodes.Ptr(st.levelOff[level] + index)
}

// peek returns the node's bookkeeping, or nil if the pass never touched
// the node; it never allocates.
func (st *recoveryState) peek(level int, index uint64) *nodeRec {
	return st.nodes.Probe(st.levelOff[level] + index)
}

// has reports whether the node carries every flag in f.
func (st *recoveryState) has(level int, index uint64, f recFlags) bool {
	r := st.peek(level, index)
	return r != nil && r.flags&f == f
}

// setHealedBase records the trusted stale FValue of a node healed in place.
func (st *recoveryState) setHealedBase(level int, index uint64, base uint64) {
	r := st.rec(level, index)
	r.healedBase = base
	r.flags |= recHealedBase
}

// rollbackSlots returns the parent slots of (level, index) that must roll
// back to their stale values.
func (st *recoveryState) rollbackSlots(level int, index uint64) []int {
	for _, rb := range st.rollback {
		if rb.level == level && rb.index == index {
			return rb.slots
		}
	}
	return nil
}

// excuseLInc excuses exactly one level's LInc equality on recorded media
// evidence (an in-place heal whose pre-damage base is unknowable).
func (st *recoveryState) excuseLInc(level int) {
	st.excused[level] = true
}

// excuseThrough excuses every level from 0 through level: a media-explained
// quarantined subtree hides increments at its root's level and at every
// descendant level (its dirty descendants are skipped entirely).
func (st *recoveryState) excuseThrough(level int) {
	for k := 0; k <= level; k++ {
		st.excused[k] = true
	}
}

// arbThrough marks every level from 0 through level as already arbitrated:
// a replay-shaped/ambiguous quarantine verdict stands over the subtree.
func (st *recoveryState) arbThrough(level int) {
	for k := 0; k <= level; k++ {
		st.arbed[k] = true
	}
}

// Recover implements memctrl.Policy: the root-to-leaf recovery of §III-G.
// Precondition: Crash() ran (the metadata cache is empty; record lines are
// flushed; LIncs, NV buffer and root survived on chip).
//
// The pass reconstructs the exact crash-time cache state and is read-only
// on every surviving trust base — the LIncs, the NV buffer and the record
// region are consulted but never modified — so a power failure during
// recovery simply restarts it from the same inputs (the mid-recovery
// re-crash window the campaign hits). Per level, from the top down: each
// tracked node's counters are regenerated from its persisted children
// (step ①/⑥) with child HMACs checked against the regenerated counter
// (tamper detection, Fig. 6); parent slots whose child flush still sits in
// the NV buffer are rolled back to the stale value the crash-time cache
// held (the buffered update had not been applied yet); the stale base is
// verified against its recovered parent or the root (step ②/⑦-⑧); and the
// level's total increment — regenerated deltas plus pending buffered
// increments, exactly the conservation law InvariantError states — is
// compared with its LInc (replay detection, steps ③-④/⑨-⑩). Recovered
// nodes then re-enter the metadata cache dirty at their recorded slots, so
// the record region already describes the reinstated layout and the
// runtime drain machinery picks the untouched buffer back up.
func (p *Policy) Recover() (memctrl.RecoveryReport, error) {
	geo := &p.c.Layout().Geo
	st := &recoveryState{
		report:   memctrl.RecoveryReport{Scheme: p.Name()},
		levelOff: make([]uint64, geo.Levels),
		dirty:    make([][]uint64, geo.Levels),
		bufInc:   make([]int64, geo.Levels),
		degraded: p.c.Config().DegradedRecovery,
		excused:  make([]bool, geo.Levels),
		arbed:    make([]bool, geo.Levels),
	}
	for k := range st.levelOff {
		st.levelOff[k] = uint64(geo.Offset(k, 0))
	}

	p.scanRecords(st)

	// Note which parent slots must be rolled back to their stale values
	// (the crash-time cache had not applied those flushes yet).
	for _, ent := range p.buf {
		pl, pi, slot := geo.Parent(ent.Level, ent.Index)
		i := slices.IndexFunc(st.rollback, func(rb rollback) bool { return rb.level == pl && rb.index == pi })
		if i < 0 {
			st.rollback = append(st.rollback, rollback{level: pl, index: pi})
			i = len(st.rollback) - 1
		}
		if !slices.Contains(st.rollback[i].slots, slot) {
			st.rollback[i].slots = append(st.rollback[i].slots, slot)
		}
	}

	for k := geo.Levels - 1; k >= 0; k-- {
		var calc int64
		for _, idx := range st.dirty[k] {
			if st.degraded && p.underQuarantine(st, k, idx) {
				continue
			}
			node, inc, err := p.recoverNode(st, k, idx)
			if err != nil {
				if st.degraded {
					// The node (or a child it regenerates from) is beyond
					// repair; arbitrate the failure against recorded media
					// evidence, give up on its coverage and keep going.
					cause, evStr := p.arbitrateFailure(k, idx, err)
					p.quarantineSubtree(st, k, idx, cause, evStr)
					continue
				}
				return st.report, err
			}
			r := st.rec(k, idx)
			r.recovered, r.inc = node, inc
			calc += inc
			p.c.FaultEvent(memctrl.EvRecoveryStep, geo.NodeAddr(k, idx))
		}
		// A buffered entry keeps the child level's LInc inflated by the
		// flushed increment until the drain moves it to the parent;
		// successive flushes of one child each contribute their increment
		// over the previous entry (chained per parent slot, in buffer
		// order, from the stale base the crash-time cache agreed with).
		st.bufInc[k] = p.bufferedIncrements(st, k)
		calc += st.bufInc[k]
		// Steps ③-④/⑨-⑩: replay detection. With no dirty nodes and no
		// pending flushes the level increment must be exactly zero (§III-G).
		// In degraded mode a mismatch is arbitrated against the recorded
		// media evidence rather than blanket-forgiven: media-excused levels
		// heal as before, already-arbitrated levels keep their quarantine
		// verdict, and a quiet regression no evidence supports is
		// replay-shaped — the level's suspect dirty nodes are quarantined.
		if calc != int64(p.linc[k]) {
			if !st.degraded {
				return st.report, memctrl.ReplayAt("SIT level", k, 0,
					fmt.Sprintf("increment %d != LInc %d", calc, int64(p.linc[k])))
			}
			switch {
			case st.excused[k]:
				// Recorded media faults disturbing this level explain the
				// hidden increments; the shortfall is degraded loss.
			case st.arbed[k]:
				// A replay-shaped/ambiguous quarantine already fenced damage
				// disturbing this level, so the residual mismatch cannot be
				// attributed — but a standing verdict elsewhere does not
				// contain a possible regression in the nodes that recovered
				// "cleanly". Ambiguity quarantines: fence the level's
				// remaining suspects too rather than reinstate one that may
				// serve authentic-stale data.
				p.quarantineReplayShaped(st, k)
			default:
				if !p.quarantineReplayShaped(st, k) {
					// Nothing left to pin the regression on: fail the
					// recovery rather than forgive an unattributable replay.
					return st.report, memctrl.ReplayAt("SIT level", k, 0,
						fmt.Sprintf("increment %d != LInc %d (no media evidence)", calc, int64(p.linc[k])))
				}
			}
		}
	}

	if st.degraded {
		p.scrub(st)
		p.rebaseLInc(st)
	}
	p.reinstate(st)
	return st.report, nil
}

// rebaseLInc re-anchors the on-chip LInc registers to the state a degraded
// pass actually reinstates: the increments of the nodes that recovered
// (quarantined subtrees' deltas are gone) plus the pending buffered chain.
// Without the rebase, every excused or arbitrated shortfall would sit in
// the register forever, so the NEXT crash would re-detect the same — by
// then fenced and arbitrated — damage as a fresh shortfall and fence
// innocent suspects with it. The fence itself is durable on-chip state
// that survives crashes, so rebasing sacrifices no detection: the verdict
// has been rendered and recorded; the register's job is to detect NEW
// regressions from the reinstated state onward. On a clean pass the
// rebase recomputes exactly the current register values (the equalities
// just held), so it is a no-op.
func (p *Policy) rebaseLInc(st *recoveryState) {
	for k := range p.linc {
		sum := st.bufInc[k]
		for _, idx := range st.dirty[k] {
			if r := st.peek(k, idx); r.recovered != nil {
				sum += r.inc
			}
		}
		p.linc[k] = uint64(sum)
	}
}

// bufferedIncrements sums, for child level k, each pending buffer entry's
// increment over the previous value of its parent slot — the same chaining
// InvariantError uses, in buffer order. The recovering cache is empty and
// pending entries are never applied while their parent is cached, so the
// chain base is always the parent's stale NVM slot value.
func (p *Policy) bufferedIncrements(st *recoveryState, k int) int64 {
	geo := &p.c.Layout().Geo
	var sum int64
	type slotVal struct {
		pi   uint64
		slot int
		val  uint64
	}
	var cur []slotVal // at most one entry per buffer slot
	for _, ent := range p.buf {
		if ent.Level != k {
			continue
		}
		pl, pi, slot := geo.Parent(ent.Level, ent.Index)
		i := slices.IndexFunc(cur, func(c slotVal) bool { return c.pi == pi && c.slot == slot })
		if i < 0 {
			cur = append(cur, slotVal{pi: pi, slot: slot, val: p.staleOf(st, pl, pi).Counter(slot)})
			i = len(cur) - 1
		}
		sum += int64(ent.Counter) - int64(cur[i].val)
		cur[i].val = ent.Counter
	}
	return sum
}

// scanRecords reads the whole record region and resolves tracked offsets,
// remembering the record position — the metadata cache slot the node
// occupied — so reinstatement can rebuild the exact pre-crash layout. A
// node tracked at several positions (older entries go stale when a node
// changes slots) keeps its lowest position; the others stay harmlessly
// stale. Corrupted entries that resolve to no node, or whose position lies
// outside the node's cache set, are ignored: an attacker can only unmark a
// genuinely dirty node this way, which the LInc comparison catches as a
// shortfall (§III-H).
func (p *Policy) scanRecords(st *recoveryState) {
	lay := p.c.Layout()
	meta := p.c.Meta()
	for li := uint64(0); li < lay.RecordLines(); li++ {
		st.report.NVMReads++
		rl := decodeRecordLine(p.c.Device().Peek(lay.RecordBase + li*nvmem.LineSize))
		for pos, off := range rl {
			if off == 0 {
				continue
			}
			level, idx, ok := lay.Geo.NodeAtOffset(off - 1)
			if !ok {
				continue
			}
			slot := int(li)*memctrl.RecordEntriesPerLine + pos
			if slot/meta.Ways() != meta.SetOf(lay.Geo.NodeAddr(level, idx)) {
				continue
			}
			r := st.rec(level, idx)
			if r.flags&recDirty == 0 {
				r.flags |= recDirty
				r.place = int32(slot)
				st.dirty[level] = append(st.dirty[level], idx)
			} else if int32(slot) < r.place {
				r.place = int32(slot)
			}
		}
	}
	for _, d := range st.dirty {
		slices.Sort(d)
	}
}

// staleOf reads (and memoises) a node's stale NVM image.
func (p *Policy) staleOf(st *recoveryState, level int, index uint64) *sit.Node {
	if r := st.peek(level, index); r != nil && r.stale != nil {
		return r.stale
	}
	st.report.NVMReads++
	n := p.c.StaleNode(level, index)
	if st.degraded && !p.selfConsistent(st, n) {
		n = p.healNode(st, n)
	}
	st.rec(level, index).stale = n
	return n
}

// trustedCounter returns the verified counter the parent side holds for
// (level, index): from the root, from an already-recovered parent, or by
// iteratively verifying the stale parent chain (the "iterative node reads"
// of §IV-D).
func (p *Policy) trustedCounter(st *recoveryState, level int, index uint64) (uint64, error) {
	geo := &p.c.Layout().Geo
	// A node with a flush still pending in the NV buffer was sealed under
	// its buffered generated counter; the buffer is trusted on-chip state,
	// so it overrides the parent side exactly as the runtime fetch path
	// does (the reinstated parent keeps the pre-flush slot value until the
	// drain applies the entry).
	if ov, ok := p.ParentCounterOverride(level, index); ok {
		return ov, nil
	}
	if geo.IsTop(level) {
		return p.c.Root().Counter(index), nil
	}
	pl, pi, slot := geo.Parent(level, index)
	if r := st.peek(pl, pi); r != nil && r.recovered != nil {
		return r.recovered.Counter(slot), nil
	}
	parent := p.staleOf(st, pl, pi)
	if err := p.verifyStale(st, parent); err != nil {
		return 0, err
	}
	return parent.Counter(slot), nil
}

// verifyStale checks a stale node's HMAC against its trusted parent
// counter, memoising success.
func (p *Policy) verifyStale(st *recoveryState, n *sit.Node) error {
	if st.has(n.Level, n.Index, recVerified) {
		return nil
	}
	pc, err := p.trustedCounter(st, n.Level, n.Index)
	if err != nil {
		return err
	}
	if !(pc == 0 && n.Encode() == (counter.Block{})) {
		st.report.MACOps++
		if p.c.NodeMAC(n, pc) != n.HMAC() {
			return memctrl.TamperAt("stale SIT node", n.Level, n.Index, "during recovery")
		}
	}
	st.rec(n.Level, n.Index).flags |= recVerified
	return nil
}

// recoverNode regenerates one tracked node's crash-time cache image from
// its persisted children and returns it with its increment over the stale
// base. Parent slots with flushes still pending in the NV buffer are
// rolled back to the stale value: the crash-time cache had not applied
// them (pending entries exist precisely because the parent was uncached
// at flush time, and a direct application would have consumed them).
func (p *Policy) recoverNode(st *recoveryState, level int, index uint64) (*sit.Node, int64, error) {
	geo := &p.c.Layout().Geo
	stale := p.staleOf(st, level, index)
	if err := p.verifyStale(st, stale); err != nil {
		return nil, 0, err
	}
	node := &sit.Node{Level: level, Index: index, IsSplit: geo.SplitLeaf && level == 0}
	var err error
	if level > 0 {
		err = p.regenerateFromNodes(st, node, stale)
	} else if node.IsSplit {
		err = p.regenerateSplitLeaf(st, node, stale)
	} else {
		err = p.regenerateGeneralLeaf(st, node, stale)
	}
	if err != nil {
		return nil, 0, err
	}
	for _, slot := range st.rollbackSlots(level, index) {
		node.SetCounter(slot, stale.Counter(slot))
	}
	st.report.NodesRecovered++
	// A node healed in place lost its persisted pre-damage image; its stale
	// FValue survives on the trusted parent side (healedBase), keeping the
	// delta — and with it the level's LInc equality — exactly accountable.
	base := int64(stale.FValue())
	if r := st.peek(level, index); r.flags&recHealedBase != 0 {
		base = int64(r.healedBase)
	}
	return node, int64(node.FValue()) - base, nil
}

// regenerateFromNodes rebuilds an intermediate node: counter i is the
// generation function of persisted child i (§III-B), and each child's HMAC
// is checked with the regenerated counter as input (Fig. 6). In degraded
// mode a child whose subtree was condemned does not poison the parent:
// the fence already contains whatever the child's image says, so the
// parent keeps the slot value the crash-time cache agreed with (its own
// stale slot — parent slots only move at child flushes, which the
// condemned child has not had since). The parent's delta stays exact and
// re-admission later reconciles the slot onto whatever base it adopts.
func (p *Policy) regenerateFromNodes(st *recoveryState, node *sit.Node, stale *sit.Node) error {
	geo := &p.c.Layout().Geo
	for i := 0; i < counter.Arity; i++ {
		childIdx := node.Index*counter.Arity + uint64(i)
		if childIdx >= geo.LevelNodes[node.Level-1] {
			continue
		}
		child := p.staleOf(st, node.Level-1, childIdx)
		if st.degraded && p.underQuarantine(st, node.Level-1, childIdx) {
			node.SetCounter(i, stale.Counter(i))
			continue
		}
		cand := child.FValue()
		if !(cand == 0 && child.Encode() == (counter.Block{})) {
			st.report.MACOps++
			if p.c.NodeMAC(child, cand) != child.HMAC() {
				return memctrl.TamperAt("child node", node.Level-1, childIdx, "during recovery")
			}
		}
		node.SetCounter(i, cand)
	}
	return nil
}

// regenerateGeneralLeaf rebuilds a general leaf from the 8 persisted data
// blocks it covers, using the tag hints (Osiris-style candidate check): a
// written block's candidate is the unique counter at or above its stale
// one that the hint names, and the candidates are checked in one batch.
func (p *Policy) regenerateGeneralLeaf(st *recoveryState, node *sit.Node, stale *sit.Node) error {
	l := &st.leaf
	written := p.c.ReadLeafData(node.Index, l)
	for _, i := range written {
		l.SetCandidate(i, cme.CandidateGC(stale.Counter(i), l.Tag[i].Hint))
	}
	eng := p.c.Engine()
	eng.CheckHints(l, written)
	for i := range int(p.c.Layout().Geo.LeafCover) {
		st.report.NVMReads++
		if !l.Tag[i].Written {
			node.SetCounter(i, stale.Counter(i)) // never written since initialisation
			continue
		}
		st.report.MACOps++
		ctr, _, ok := eng.RecoverSlotGC(l, i, 0)
		if !ok {
			var err error
			if ctr, err = p.slotFailed(st, node, stale, i); err != nil {
				return err
			}
		}
		node.SetCounter(i, ctr)
	}
	return nil
}

// slotFailed settles a leaf slot whose block verifies under no counter.
// In degraded mode a general-leaf block destroyed by a recorded media
// fault keeps its exactly reconstructed counter (reconstructTornSlot);
// anything else is tampering.
func (p *Policy) slotFailed(st *recoveryState, node, stale *sit.Node, i int) (uint64, error) {
	daddr := p.c.Layout().Geo.DataAddr(node.Index, i)
	if node.IsSplit {
		return 0, memctrl.TamperData(daddr, "during split-leaf recovery")
	}
	if st.degraded {
		if ctr, ok := p.reconstructTornSlot(st, node.Index, daddr, stale.Counter(i)); ok {
			return ctr, nil
		}
	}
	return 0, memctrl.TamperData(daddr, "during leaf recovery")
}

// reconstructTornSlot handles a data block destroyed by a recorded media
// fault (a torn crash write, stuck cells) under a recovering leaf. The data
// is genuine loss — its coverage quarantines — but the slot's crash-time
// counter is still exactly reconstructible for LInc accounting: the tag
// region survived the tear, and the tag hint pins the counter uniquely
// within the reachable window [stale, stale + LInc[0]] (counters only grow,
// and a slot cannot have absorbed more than the level's whole unflushed
// increment). Accounting the delta exactly means the quarantine needs NO
// level excuse, so a concurrent data replay elsewhere on the level still
// surfaces as an unexcused shortfall instead of laundering through the
// media loss. Reconstruction declines (and the caller falls back to the
// excuse path) when the damage has no media evidence, the hint names no
// unique in-window counter, or the tag was never written.
func (p *Policy) reconstructTornSlot(st *recoveryState, leaf uint64, daddr uint64, staleCtr uint64) (uint64, bool) {
	ev := p.c.EvidenceAt(daddr)
	cause, ok := memctrl.MediaCause(ev)
	if !ok {
		return 0, false
	}
	tag := p.c.Tag(daddr)
	if !tag.Written {
		return 0, false
	}
	cand := cme.CandidateGC(staleCtr, tag.Hint)
	if cand > staleCtr+p.linc[0] {
		return 0, false // the hint names no reachable counter
	}
	if cand+cme.GCHintMask+1 <= staleCtr+p.linc[0] {
		return 0, false // window spans several congruent candidates: ambiguous
	}
	p.quarantineAccounted(st, 0, leaf, cause, ev.String())
	return cand, true
}

// regenerateSplitLeaf rebuilds a split leaf from its 64 persisted data
// blocks: the major comes from the tag copies (§II-D), the minors from the
// per-block search. All written blocks must agree on one major no older
// than the stale base; disagreement or regression means replayed blocks.
// The written blocks' hinted counters are checked in one batch before the
// per-block search.
func (p *Policy) regenerateSplitLeaf(st *recoveryState, node *sit.Node, stale *sit.Node) error {
	l := &st.leaf
	written := p.c.ReadLeafData(node.Index, l)
	major, haveWritten := stale.Split.Major, false
	for i := range counter.SplitArity {
		st.report.NVMReads++
		if !l.Tag[i].Written {
			continue // never written: minor stays zero
		}
		if h := l.Tag[i].Hint >> 6; !haveWritten {
			major, haveWritten = h, true
		} else if h != major {
			return memctrl.ReplayAt("split leaf", 0, node.Index, "inconsistent major counters across data blocks")
		}
	}
	if haveWritten && major < stale.Split.Major {
		return memctrl.ReplayAt("split leaf", 0, node.Index,
			fmt.Sprintf("recovered major %d older than persisted %d", major, stale.Split.Major))
	}
	node.Split.Major = major
	eng := p.c.Engine()
	eng.CheckHints(l, written)
	for _, i := range written {
		m, minor, macOps, ok := eng.RecoverSlotSC(l, i)
		st.report.MACOps += macOps
		if !ok {
			_, err := p.slotFailed(st, node, stale, i)
			return err
		}
		if m != major {
			return memctrl.ReplayData(p.c.Layout().Geo.DataAddr(node.Index, i), "major mismatch")
		}
		node.Split.Minor[i] = minor
	}
	return nil
}

// reinstate re-installs every recovered node into the metadata cache
// marked dirty, at the exact slot its record entry names. Rebuilding the
// pre-crash layout this way needs no evictions (each slot held the node
// before the crash) and leaves the record region already describing the
// reinstated cache, so recovery completes without writing any NV state.
// The crash-time LIncs already describe exactly this dirty state, and the
// untouched NV buffer keeps serving parent-counter overrides until the
// normal runtime drain applies it.
func (p *Policy) reinstate(st *recoveryState) {
	geo := &p.c.Layout().Geo
	meta := p.c.Meta()
	for k := geo.Levels - 1; k >= 0; k-- {
		for _, idx := range st.dirty[k] {
			r := st.peek(k, idx)
			if r.recovered == nil {
				// Quarantined in degraded mode: no crash-time image exists
				// to reinstate.
				continue
			}
			addr := geo.NodeAddr(k, idx)
			meta.PlaceAt(int(r.place), addr, r.recovered, true)
			p.c.FaultEvent(memctrl.EvRecoveryStep, addr)
		}
	}
}
