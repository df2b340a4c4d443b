package steins

import (
	"fmt"

	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// nodeKey identifies a tree node during recovery.
type nodeKey struct {
	level int
	index uint64
}

// recoveryState carries the bookkeeping of one Recover pass.
type recoveryState struct {
	report    memctrl.RecoveryReport
	dirty     []map[uint64]bool      // per level: nodes to regenerate
	recovered []map[uint64]*sit.Node // per level: regenerated nodes
	place     map[nodeKey]int        // record position (= cache slot) per node
	rollback  map[nodeKey][]int      // parent slots with pending buffered flushes
	stales    map[nodeKey]*sit.Node  // memoised stale reads
	verified  map[nodeKey]bool       // stale nodes already chain-verified
	incs      map[nodeKey]int64      // each recovered node's increment over its base
	bufInc    []int64                // per level: pending buffered-increment chain

	// Degraded-mode bookkeeping (heal.go); inert when degraded is false.
	degraded  bool
	healedSet map[nodeKey]bool // nodes rebuilt in place from their children
	quarRoots map[nodeKey]bool // quarantined subtree roots
	// healedBase carries the trusted stale FValue of a node healed in place:
	// the heal regenerates the node from children or data, losing the
	// persisted pre-damage image, but the parent side still names its exact
	// FValue, so the node's LInc delta stays exactly accountable.
	healedBase map[nodeKey]uint64
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
	excused map[int]bool
	arbed   map[int]bool

	// Scratch of regenerateSplitLeaf, reused by every leaf of the pass: the
	// leaf's data blocks as read, and the slots whose tags say written.
	leafBlocks  [counter.SplitArity]leafBlock
	leafWritten []int
}

// leafBlock is one data block of a split leaf under regeneration.
type leafBlock struct {
	addr uint64
	ct   [64]byte
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
		report:     memctrl.RecoveryReport{Scheme: p.Name()},
		dirty:      make([]map[uint64]bool, geo.Levels),
		recovered:  make([]map[uint64]*sit.Node, geo.Levels),
		place:      make(map[nodeKey]int),
		rollback:   make(map[nodeKey][]int),
		stales:     make(map[nodeKey]*sit.Node),
		verified:   make(map[nodeKey]bool),
		incs:       make(map[nodeKey]int64),
		bufInc:     make([]int64, geo.Levels),
		degraded:   p.c.Config().DegradedRecovery,
		healedSet:  make(map[nodeKey]bool),
		quarRoots:  make(map[nodeKey]bool),
		healedBase: make(map[nodeKey]uint64),
		excused:    make(map[int]bool),
		arbed:      make(map[int]bool),
	}
	for k := range st.dirty {
		st.dirty[k] = make(map[uint64]bool)
		st.recovered[k] = make(map[uint64]*sit.Node)
	}

	p.scanRecords(st)

	// Group pending buffer entries by the level of the parent they target,
	// and note which parent slots must be rolled back to their stale values
	// (the crash-time cache had not applied those flushes yet).
	bufByParent := make(map[int][]bufEntry)
	for _, ent := range p.buf {
		pl, pi, slot := geo.Parent(ent.level, ent.index)
		bufByParent[pl] = append(bufByParent[pl], ent)
		key := nodeKey{pl, pi}
		if !containsInt(st.rollback[key], slot) {
			st.rollback[key] = append(st.rollback[key], slot)
		}
	}

	for k := geo.Levels - 1; k >= 0; k-- {
		var calc int64
		for _, idx := range sortedKeys(st.dirty[k]) {
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
			st.recovered[k][idx] = node
			st.incs[nodeKey{k, idx}] = inc
			calc += inc
			p.c.FaultEvent(memctrl.EvRecoveryStep, geo.NodeAddr(k, idx))
		}
		// A buffered entry keeps the child level's LInc inflated by the
		// flushed increment until the drain moves it to the parent;
		// successive flushes of one child each contribute their increment
		// over the previous entry (chained per parent slot, in buffer
		// order, from the stale base the crash-time cache agreed with).
		st.bufInc[k] = p.bufferedIncrements(st, k, bufByParent)
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

	cfg := p.c.Config()
	st.report.TimeNS = float64(st.report.NVMReads)*cfg.RecoveryReadNS +
		float64(st.report.NVMWrites)*cfg.RecoveryWriteNS +
		float64(st.report.MACOps)*cfg.RecoveryHashNS
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
		for idx := range st.recovered[k] {
			sum += st.incs[nodeKey{k, idx}]
		}
		p.linc[k] = uint64(sum)
	}
}

// bufferedIncrements sums, for child level k, each pending buffer entry's
// increment over the previous value of its parent slot — the same chaining
// InvariantError uses. The recovering cache is empty and pending entries
// are never applied while their parent is cached, so the chain base is
// always the parent's stale NVM slot value.
func (p *Policy) bufferedIncrements(st *recoveryState, k int, bufByParent map[int][]bufEntry) int64 {
	geo := &p.c.Layout().Geo
	var sum int64
	type slotKey struct {
		pi   uint64
		slot int
	}
	cur := make(map[slotKey]uint64)
	for pl, ents := range bufByParent {
		for _, ent := range ents {
			if ent.level != k {
				continue
			}
			_, pi, slot := geo.Parent(ent.level, ent.index)
			key := slotKey{pi, slot}
			base, seen := cur[key]
			if !seen {
				base = p.staleOf(st, pl, pi).Counter(slot)
			}
			sum += int64(ent.counter) - int64(base)
			cur[key] = ent.counter
		}
	}
	return sum
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
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
			key := nodeKey{level, idx}
			if old, dup := st.place[key]; !dup || slot < old {
				st.place[key] = slot
			}
			st.dirty[level][idx] = true
		}
	}
}

// staleOf reads (and memoises) a node's stale NVM image.
func (p *Policy) staleOf(st *recoveryState, level int, index uint64) *sit.Node {
	key := nodeKey{level, index}
	if n, ok := st.stales[key]; ok {
		return n
	}
	st.report.NVMReads++
	n := p.c.StaleNode(level, index)
	if st.degraded && !p.selfConsistent(st, n) {
		n = p.healNode(st, n)
	}
	st.stales[key] = n
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
	if n, ok := st.recovered[pl][pi]; ok {
		return n.Counter(slot), nil
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
	key := nodeKey{n.Level, n.Index}
	if st.verified[key] {
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
	st.verified[key] = true
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
	for _, slot := range st.rollback[nodeKey{level, index}] {
		node.SetCounter(slot, stale.Counter(slot))
	}
	st.report.NodesRecovered++
	// A node healed in place lost its persisted pre-damage image; its stale
	// FValue survives on the trusted parent side (healedBase), keeping the
	// delta — and with it the level's LInc equality — exactly accountable.
	base := int64(stale.FValue())
	if hb, ok := st.healedBase[nodeKey{level, index}]; ok {
		base = int64(hb)
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
// blocks it covers, using the tag hints (Osiris-style candidate check).
func (p *Policy) regenerateGeneralLeaf(st *recoveryState, node *sit.Node, stale *sit.Node) error {
	geo := &p.c.Layout().Geo
	eng := p.c.Engine()
	for i := 0; i < int(geo.LeafCover); i++ {
		daddr := geo.DataAddr(node.Index, i)
		st.report.NVMReads++
		ct := [64]byte(p.c.Device().Peek(daddr))
		ctr, macOps, ok := eng.RecoverCounterGC(&ct, daddr, p.c.Tag(daddr), stale.Counter(i))
		st.report.MACOps += macOps
		if !ok {
			if st.degraded {
				if c2, ok2 := p.reconstructTornSlot(st, node.Index, daddr, stale.Counter(i)); ok2 {
					node.SetCounter(i, c2)
					continue
				}
			}
			return memctrl.TamperData(daddr, "during leaf recovery")
		}
		node.SetCounter(i, ctr)
	}
	return nil
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
	cand := staleCtr&^uint64(cme.GCHintMask) | tag.Hint
	if cand < staleCtr {
		cand += cme.GCHintMask + 1
	}
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
func (p *Policy) regenerateSplitLeaf(st *recoveryState, node *sit.Node, stale *sit.Node) error {
	geo := &p.c.Layout().Geo
	eng := p.c.Engine()
	major := stale.Split.Major
	haveWritten := false
	blocks := &st.leafBlocks
	written := st.leafWritten[:0]
	for i := 0; i < counter.SplitArity; i++ {
		daddr := geo.DataAddr(node.Index, i)
		st.report.NVMReads++
		blocks[i] = leafBlock{addr: daddr, ct: [64]byte(p.c.Device().Peek(daddr))}
		tag := p.c.Tag(daddr)
		if !tag.Written {
			continue // never written: minor stays zero
		}
		if h := tag.Hint >> 6; !haveWritten {
			major, haveWritten = h, true
		} else if h != major {
			return memctrl.ReplayAt("split leaf", 0, node.Index, "inconsistent major counters across data blocks")
		}
		written = append(written, i)
	}
	st.leafWritten = written
	if haveWritten && major < stale.Split.Major {
		return memctrl.ReplayAt("split leaf", 0, node.Index,
			fmt.Sprintf("recovered major %d older than persisted %d", major, stale.Split.Major))
	}
	node.Split.Major = major
	for _, i := range written {
		b := &blocks[i]
		m, minor, macOps, ok := eng.RecoverCounterSC(&b.ct, b.addr, p.c.Tag(b.addr), stale.Split.Minor[i])
		st.report.MACOps += macOps
		if !ok {
			return memctrl.TamperData(b.addr, "during split-leaf recovery")
		}
		if m != major {
			return memctrl.ReplayData(b.addr, "major mismatch")
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
		for _, idx := range sortedKeys(st.dirty[k]) {
			node := st.recovered[k][idx]
			if node == nil {
				// Quarantined in degraded mode: no crash-time image exists
				// to reinstate.
				continue
			}
			addr := geo.NodeAddr(k, idx)
			meta.PlaceAt(st.place[nodeKey{k, idx}], addr, node, true)
			p.c.FaultEvent(memctrl.EvRecoveryStep, addr)
		}
	}
}
