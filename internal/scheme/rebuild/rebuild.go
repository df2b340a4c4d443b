// Package rebuild implements bottom-up integrity-tree reconstruction for
// the generated-counter (CounterGen) scheme family. Any scheme whose parent
// counters are derived from child contents (Eq. 1/Eq. 2) can rebuild every
// interior level by summation once the leaf level is trusted; the packages
// scue, pipesit and triad differ only in HOW the leaf level is recovered
// (Osiris-style search over data blocks vs. reading strictly-persisted leaf
// images) and in what runtime state survives the crash.
//
// Degraded recovery here is built on EXACT counter accounting: every data
// block's encryption counter is either proven by its MAC (fast candidate
// over the stale base, then a base-less search over hint-congruent values)
// or pinned arithmetically from the tag hint when recorded media evidence
// says the ciphertext itself is gone. A leaf's blocks are read once by the
// controller's reader (memctrl.Controller.ReadLeafData) and their
// candidates checked in one batch (cme.Engine.CheckHints), as in every
// other pass that rebuilds a leaf from its data. The reconstructed leaf
// total is then a conservation law against the on-chip recovery register:
// a residual with no unpinnable block behind it can only mean replayed
// authentic-stale state, and recovery fails closed by condemning the whole
// tree instead of forgiving the mismatch. Only genuine double destruction — evidenced media
// damage to both a ciphertext and its leaf's stale base — leaves the total
// unknowable, and only that (unforgeable) evidence forgives a residual.
//
// The helpers here keep the recovery accounting (NVMReads/NVMWrites/MACOps/
// NodesRecovered, which the controller prices by the §IV-D cost model)
// identical across the family, so cross-scheme recovery comparisons
// measure the designs, not bookkeeping drift. All paths are read-only
// until WriteBack and therefore restartable: a mid-recovery re-crash
// simply reruns them from scratch.
package rebuild

import (
	"fmt"

	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// searchSteps caps the base-less hint-congruent counter search: enough to
// cover any counter a simulated workload reaches, bounded so an
// unverifiable block cannot stall recovery.
const searchSteps = 4096

// LeafRecovery aggregates one leaf-level reconstruction: the recovered
// nodes, their exact FValue total, and the two counters the register
// residual policy arbitrates on.
type LeafRecovery struct {
	Leaves []*sit.Node
	Total  uint64
	// Unpinnable counts data blocks whose exact counter could not be
	// established by any means: evidenced media damage destroyed the
	// ciphertext AND the stale base needed to resolve the hint congruence.
	// Only these blocks make the leaf total genuinely unknowable, and the
	// evidence behind them cannot be manufactured by an attacker (the
	// device ledger records only real faults, never stores).
	Unpinnable int
	// AttackShaped counts blocks whose damage no recorded media evidence
	// explains — tampered ciphertexts, flipped tags, forged hints. Any such
	// block means an active adversary touched durable state, and the
	// residual policy fails closed regardless of whether the totals happen
	// to balance.
	AttackShaped int
	// Fenced is set by CheckRegister when the residual policy condemned
	// the whole tree; the scheme should still write back the rebuilt
	// (sealed, possibly stale) tree so re-admission has a coherent base.
	Fenced bool

	// leaf is LeafFromData's scratch, allocated by the pass's first leaf
	// rebuilt from data and reused by the rest.
	leaf *cme.Leaf
}

// LeafFromData reconstructs one leaf node from its covered data blocks,
// exactly where possible: MAC-proven counters first, hint-pinned counters
// where media evidence says the ciphertext is gone. A general block's
// candidate is the unique counter at or above its stale one that the hint
// names; on a miss the base-less search proves the block exactly if only
// the base was lost (a torn, flipped or replayed leaf image). A split
// leaf's written blocks must all agree on one major (the high bits of
// each tag hint) and their candidates are the hints; the hint carries a
// split block's full counter, so split leaves are never unpinnable. In
// degraded mode an unverifiable coverage is quarantined (fenced, typed
// fail-fast reads) and the best-known counters are carried so the interior
// summation and the register conservation law stay exact; in strict mode
// the first unverifiable block aborts with the integrity error.
func LeafFromData(c *memctrl.Controller, rep *memctrl.RecoveryReport, rec *LeafRecovery, idx uint64, stale *sit.Node, degraded bool) (*sit.Node, error) {
	geo := &c.Layout().Geo
	eng := c.Engine()
	node := &sit.Node{Level: 0, Index: idx, IsSplit: geo.SplitLeaf}

	var cause memctrl.QuarantineCause
	var evidence string
	condemn := func(q memctrl.QuarantineCause, ev string) {
		if cause == memctrl.CauseUnknown || (!cause.MediaExplained() && q.MediaExplained()) {
			cause, evidence = q, ev
		}
	}

	if rec.leaf == nil {
		rec.leaf = new(cme.Leaf)
	}
	l := rec.leaf
	written := c.ReadLeafData(idx, l)
	if !node.IsSplit {
		for _, i := range written {
			l.SetCandidate(i, cme.CandidateGC(stale.Counter(i), l.Tag[i].Hint))
		}
	}
	eng.CheckHints(l, written)
	major, haveWritten := stale.Split.Major, false
	for i := range int(geo.LeafCover) {
		daddr := geo.DataAddr(idx, i)
		rep.NVMReads++
		tag := l.Tag[i]
		if !tag.Written {
			// Never written: the counter never left zero, whatever a
			// damaged stale image claims.
			if !node.IsSplit {
				node.SetCounter(i, 0)
			}
			continue
		}
		var ok bool
		if node.IsSplit {
			if h := tag.Hint >> 6; !haveWritten {
				major, haveWritten = h, true
			} else if h != major {
				// Tags from different major epochs cannot coexist after a
				// request-atomic crash: some of these blocks are replayed.
				if !degraded {
					return nil, memctrl.ReplayAt("split leaf", 0, idx, "inconsistent majors")
				}
				rec.AttackShaped++
				condemn(memctrl.CauseReplayShaped, c.EvidenceAt(daddr).String())
				major = max(major, h)
				continue
			}
			m, minor, macOps, hit := eng.RecoverSlotSC(l, i)
			rep.MACOps += macOps
			if ok = hit && m == major; !ok {
				minor = uint8(tag.Hint & 63)
			}
			node.Split.Minor[i] = minor
		} else {
			ctr, tried, hit := eng.RecoverSlotGC(l, i, searchSteps)
			rep.MACOps += 1 + uint64(tried)
			if ok = hit; !ok {
				// Carry the hint-pinned candidate: exact when the hint and
				// base are authentic, and any forgery here surfaces as a
				// register residual.
				ctr = cme.CandidateGC(stale.Counter(i), tag.Hint)
			}
			node.SetCounter(i, ctr)
		}
		if ok {
			continue
		}
		// No counter verifies this ciphertext: the block is damaged.
		if !degraded {
			return nil, memctrl.TamperData(daddr, "during tree rebuild")
		}
		dev := c.EvidenceAt(daddr)
		if mc, mok := memctrl.MediaCause(dev); mok {
			if _, baseLost := memctrl.MediaCause(c.EvidenceAt(geo.NodeAddr(0, idx))); !node.IsSplit && baseLost {
				// Double destruction: ciphertext and stale base both lost
				// to evidenced media damage — the counter is unknowable.
				rec.Unpinnable++
			}
			condemn(mc, dev.String())
		} else {
			rec.AttackShaped++
			condemn(memctrl.CauseAmbiguous, dev.String())
		}
	}
	if node.IsSplit {
		node.Split.Major = major
	}
	if cause != memctrl.CauseUnknown {
		c.QuarantineSubtree(0, idx, cause, evidence, &rep.Degradation)
	}
	return node, nil
}

// LeavesFromData reconstructs every leaf node from its covered data blocks
// (SCUE §II-D): cost scales with data capacity. See LeafFromData for the
// exactness and quarantine rules.
func LeavesFromData(c *memctrl.Controller, rep *memctrl.RecoveryReport, degraded bool) (*LeafRecovery, error) {
	geo := &c.Layout().Geo
	rec := &LeafRecovery{Leaves: make([]*sit.Node, geo.LevelNodes[0])}
	for idx := uint64(0); idx < geo.LevelNodes[0]; idx++ {
		rep.NVMReads++ // stale leaf
		stale := c.StaleNode(0, idx)
		node, err := LeafFromData(c, rep, rec, idx, stale, degraded)
		if err != nil {
			return nil, err
		}
		rec.Leaves[idx] = node
		rec.Total += node.FValue()
	}
	return rec, nil
}

// LeavesFromNVM reads every leaf's current NVM image and checks its
// self-seal: a generated-counter leaf that is persisted strictly (written
// through on every modification, Triad-NVM style) carries an HMAC under its
// own FValue, so tampering with counters or MAC is detected per leaf, and
// replay of an authentic old image is caught by the caller's register check
// on the returned total. Cost scales with the tree, not the data capacity.
// In degraded mode a leaf whose self-seal fails is reconstructed from its
// covered data blocks instead — a rebuilt leaf that proves every block by
// MAC heals outright; anything less is quarantined under LeafFromData's
// arbitration.
func LeavesFromNVM(c *memctrl.Controller, rep *memctrl.RecoveryReport, degraded bool) (*LeafRecovery, error) {
	geo := &c.Layout().Geo
	rec := &LeafRecovery{Leaves: make([]*sit.Node, geo.LevelNodes[0])}
	for idx := uint64(0); idx < geo.LevelNodes[0]; idx++ {
		rep.NVMReads++
		line := c.Device().Peek(geo.NodeAddr(0, idx))
		node := sit.DecodeNode(0, idx, geo.SplitLeaf, counter.Block(line))
		// A split leaf's FValue sums its 64 minors: take it once for the
		// self-seal and the total.
		fv := node.FValue()
		// An all-zero line is the valid initial state of a never-flushed
		// leaf (cf. Controller.VerifyNodeLine).
		if line != (nvmem.Line{}) {
			rep.MACOps++
			if c.NodeMAC(node, fv) != node.HMAC() {
				if !degraded {
					return nil, memctrl.TamperAt("strict leaf", 0, idx, "self-seal HMAC mismatch")
				}
				// The persisted image is damaged: fall back to the data
				// blocks, which carry their own MACs and hints. The rebuilt
				// leaf is resealed and re-persisted — strict-persistence
				// schemes keep their leaf images current in NVM.
				rebuilt, err := LeafFromData(c, rep, rec, idx, node, degraded)
				if err != nil {
					return nil, err
				}
				fv = rebuilt.FValue()
				rebuilt.SetHMAC(c.NodeMAC(rebuilt, fv))
				rep.MACOps++
				c.Device().Poke(geo.NodeAddr(0, idx), nvmem.Line(rebuilt.Encode()))
				rep.NVMWrites++
				rep.NodesRecovered++
				node = rebuilt
			}
		}
		rec.Leaves[idx] = node
		rec.Total += fv
	}
	return rec, nil
}

// CheckRegister arbitrates the reconstructed leaf total against the
// scheme's on-chip recovery register — a conservation law over every
// counter increment the runtime ever applied. Because the leaf totals are
// exact (MAC-proven or hint-pinned) up to the recorded Unpinnable blocks,
// the policy is:
//
//   - Evidence-free damage anywhere (AttackShaped > 0): an active adversary
//     touched durable state; fail closed and condemn the whole tree, even
//     if the totals balance — a forged hint could cancel a replay deficit.
//   - Residual with no unpinnable block: stale authentic state was replayed
//     somewhere among the MAC-verified blocks; it cannot be localised, so
//     condemn the whole tree.
//   - Residual with unpinnable blocks: genuine double media destruction
//     made the total unknowable; the damaged coverage is already
//     quarantined under its media verdict, and the mismatch is forgiven
//     (the evidence behind it is unforgeable). This is the documented
//     residual-risk window: a replay timed into the same crash as a double
//     destruction hides, but the attacker cannot cause the destruction.
//
// The returned register value is what the scheme should carry forward:
// unchanged on an exact match or strict error, resynced to the rebuilt
// total whenever recovery proceeds past a mismatch (the quarantine records
// are the durable memory of the event; resyncing makes the next crash's
// conservation law exact again instead of re-condemning a fenced tree).
func CheckRegister(c *memctrl.Controller, rep *memctrl.RecoveryReport, rec *LeafRecovery, register uint64, degraded bool) (uint64, error) {
	if rec.Total == register && rec.AttackShaped == 0 {
		return register, nil
	}
	if !degraded {
		if rec.Total != register {
			return register, memctrl.ReplayAt("leaf level", 0, 0,
				fmt.Sprintf("leaf sum %d != recovery register %d", rec.Total, register))
		}
		return register, nil
	}
	if rec.Total != register && rec.Unpinnable > 0 && rec.AttackShaped == 0 {
		return rec.Total, nil
	}
	detail := fmt.Sprintf("leaf sum %d != recovery register %d", rec.Total, register)
	if rec.AttackShaped > 0 {
		detail = fmt.Sprintf("%d evidence-free damaged blocks; leaf sum %d, recovery register %d",
			rec.AttackShaped, rec.Total, register)
	}
	rec.Fenced = true
	c.QuarantineAll(memctrl.CauseReplayShaped, detail, &rep.Degradation)
	return rec.Total, nil
}

// WriteBack rebuilds every interior level by summation over the recovered
// leaves, reseals each node under its generated parent counter, persists
// the result and installs the top-level counters in the on-chip root. With
// writeLeaves the leaf level itself is also resealed and persisted (schemes
// whose leaves were reconstructed rather than read); without it the leaf
// images in NVM are already current and only levels >= 1 are written.
func WriteBack(c *memctrl.Controller, rep *memctrl.RecoveryReport, leaves []*sit.Node, writeLeaves bool) {
	geo := &c.Layout().Geo
	levels := make([][]*sit.Node, geo.Levels)
	levels[0] = leaves
	for k := 1; k < geo.Levels; k++ {
		levels[k] = make([]*sit.Node, geo.LevelNodes[k])
		for idx := range levels[k] {
			n := &sit.Node{Level: k, Index: uint64(idx)}
			for i := 0; i < counter.Arity; i++ {
				ci := uint64(idx)*counter.Arity + uint64(i)
				if ci < uint64(len(levels[k-1])) {
					n.SetCounter(i, levels[k-1][ci].FValue())
				}
			}
			levels[k][idx] = n
		}
	}
	start := 0
	if !writeLeaves {
		start = 1
	}
	for k := start; k < geo.Levels; k++ {
		for idx, n := range levels[k] {
			n.SetHMAC(c.NodeMAC(n, n.FValue()))
			rep.MACOps++
			c.Device().Poke(geo.NodeAddr(k, uint64(idx)), nvmem.Line(n.Encode()))
			rep.NVMWrites++
			rep.NodesRecovered++
			if geo.IsTop(k) {
				c.Root().SetCounter(uint64(idx), n.FValue())
			}
			c.FaultEvent(memctrl.EvRecoveryStep, geo.NodeAddr(k, uint64(idx)))
		}
	}
	// With the leaf level kept in place its top-level ancestors still must
	// land in the root; geo.Levels == 1 (single-level trees) hits this.
	if !writeLeaves && geo.Levels == 1 {
		for idx, n := range levels[0] {
			c.Root().SetCounter(uint64(idx), n.FValue())
		}
	}
}
