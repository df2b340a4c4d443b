// Package asit implements the Anubis-for-SGX-Integrity-Tree baseline
// (Zubair & Awad, ISCA'19; §IV of the Steins paper): every modification of
// a cached metadata node is persisted to a shadow table in NVM (doubling
// memory writes), and a Merkle cache-tree over the shadow slots (a
// bmt.Tree, one leaf per slot) — its root in an on-chip non-volatile
// register, its interior in volatile SRAM — authenticates them. Recovery reads the whole shadow table, checks it
// against the cache-tree root, and restores every recorded node, which is
// why ASIT recovers fastest (Fig. 17) while paying the highest runtime
// cost (Figs. 9-10).
package asit

import (
	"encoding/binary"
	"slices"

	"steins/internal/bmt"
	"steins/internal/cache"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// Policy is the ASIT scheme.
type Policy struct {
	c *memctrl.Controller
	// tree is the cache-tree over shadow slots: leaf s is the hash of slot
	// s. Volatile SRAM: recomputed from the shadow table at recovery.
	tree *bmt.Tree
	// root is the cache-tree root, an on-chip non-volatile register.
	root uint64
}

// Factory builds an ASIT policy; pass to memctrl.New.
func Factory(c *memctrl.Controller) memctrl.Policy {
	p := &Policy{c: c}
	// Leaf hashes must cover the empty shadow slots too: recovery hashes
	// whatever the slots hold, including ones never written.
	leaves := make([]uint64, c.Meta().Capacity())
	for s := range leaves {
		leaves[s] = p.leafHash(s, nvmem.Line{})
	}
	p.tree = bmt.New(leaves, c.Config().Key, c.Config().MAC)
	p.root = p.tree.Root()
	return p
}

// Name implements memctrl.Policy.
func (p *Policy) Name() string { return "ASIT" }

// CounterGen implements memctrl.Policy: classic self-increment SIT.
func (p *Policy) CounterGen() bool { return false }

// slotAddr returns the NVM address of a shadow-table slot.
func (p *Policy) slotAddr(slot int) uint64 {
	return p.c.Layout().ShadowBase + uint64(slot)*nvmem.LineSize
}

// slotContent encodes a shadow entry: the node's 56-byte counter region
// plus its metadata-region offset + 1 (zero marks an empty slot). The HMAC
// is omitted — recovery recomputes HMACs from restored parent counters.
func (p *Policy) slotContent(n *sit.Node) nvmem.Line {
	var l nvmem.Line
	cb := n.CounterBytes()
	copy(l[:56], cb[:])
	binary.LittleEndian.PutUint32(l[56:60], p.c.Layout().Geo.Offset(n.Level, n.Index)+1)
	return l
}

// leafHash authenticates one shadow slot's content bound to its position.
func (p *Policy) leafHash(slot int, content nvmem.Line) uint64 {
	return bmt.LeafHash(p.c.Config().Key, p.c.Config().MAC, uint64(slot), content)
}

// OnModify implements memctrl.Policy: persist the updated node to its
// shadow slot (the 2x write traffic of §II-D) and propagate the change
// through the cache-tree to the on-chip root.
func (p *Policy) OnModify(e *cache.Entry[*sit.Node], _ bool, _ uint64) uint64 {
	content := p.slotContent(e.Payload)
	stall := p.c.Device().MustWrite(p.c.Now(), p.slotAddr(e.Slot()), content, nvmem.ClassShadow)
	p.c.CountHash(p.tree.Set(e.Slot(), p.leafHash(e.Slot(), content)))
	p.root = p.tree.Root()
	// The cache-tree engine pipelines the path; the request waits for the
	// leaf hash plus one lagging stage before the next dependent update.
	return stall + 2*p.c.Config().HashCycles
}

// EvictDirty implements memctrl.Policy with the classic write-back; the
// vacated shadow slot keeps its stale entry (harmless: restoring a clean
// node rewrites its already-persistent value).
func (p *Policy) EvictDirty(victim *sit.Node) (uint64, error) {
	return p.c.ClassicEvict(victim)
}

// BeforeRead implements memctrl.Policy.
func (p *Policy) BeforeRead() (uint64, error) { return 0, nil }

// ParentCounterOverride implements memctrl.Policy.
func (p *Policy) ParentCounterOverride(int, uint64) (uint64, bool) { return 0, false }

// OnCrash implements memctrl.Policy: shadow writes were synchronous and
// the root is non-volatile; the SRAM interior is simply lost.
func (p *Policy) OnCrash() {}

// Recover implements memctrl.Policy: read every shadow slot, verify the
// recomputed cache-tree against the surviving root, and restore each
// recorded node into NVM with an HMAC recomputed under its restored (or
// already-consistent) parent counter, top level first.
func (p *Policy) Recover() (memctrl.RecoveryReport, error) {
	rep := memctrl.RecoveryReport{Scheme: p.Name()}
	lay := p.c.Layout()
	geo := &lay.Geo
	degraded := p.c.Config().DegradedRecovery

	// A node that moved cache slots leaves a stale entry in its old shadow
	// slot; both images are authentic, so keep the one with the larger
	// (monotonic) counter value per node.
	byLevel := make([]map[uint64]*sit.Node, geo.Levels)
	for k := range byLevel {
		byLevel[k] = make(map[uint64]*sit.Node)
	}
	leaves := p.tree.Leaves()
	for s := range leaves {
		rep.NVMReads++
		content := p.c.Device().Peek(p.slotAddr(s))
		leaves[s] = p.leafHash(s, content)
		rep.MACOps++
		off := binary.LittleEndian.Uint32(content[56:60])
		if off == 0 {
			continue
		}
		level, index, ok := geo.NodeAtOffset(off - 1)
		if !ok {
			if degraded {
				// The slot content was corrupted on media: which node it
				// held is unknowable, so the node it shadowed cannot be
				// restored. Record the loss and keep going; the cache-tree
				// root check below decides whether the rest is trustworthy.
				rep.Degradation.Unrecoverable = append(rep.Degradation.Unrecoverable,
					memctrl.NodeRef{Level: -1, Index: uint64(s)})
				continue
			}
			return rep, memctrl.TamperAt("shadow slot", -1, uint64(s), "invalid offset field")
		}
		var blk counter.Block
		copy(blk[:56], content[:56])
		node := sit.DecodeNode(level, index, geo.SplitLeaf && level == 0, blk)
		if prev, dup := byLevel[level][index]; !dup || node.FValue() > prev.FValue() {
			byLevel[level][index] = node
		}
	}
	recomputed, hashes := p.tree.Rebuild()
	rep.MACOps += hashes
	if recomputed != p.root {
		if degraded {
			// The cache-tree proof is broken, so no shadow image can be
			// trusted for restoration: quarantine everything the table
			// recorded and restore nothing. The verdict is arbitrated
			// against the shadow table's own media evidence — a recorded
			// persistent fault on any slot line explains the mismatch as
			// degraded loss; a clean table whose proof broke is
			// replay-shaped. (This trades replay fail-stop for
			// availability — the report makes the degradation visible.)
			cause, ev := memctrl.CauseReplayShaped, memctrl.EvidenceSummary{}.String()
			for s := range leaves {
				sev := p.c.EvidenceAt(p.slotAddr(s))
				if mc, ok := memctrl.MediaCause(sev); ok {
					cause, ev = mc, sev.String()
					break
				}
			}
			for level := range byLevel {
				for _, index := range sortedIndices(byLevel[level]) {
					p.c.QuarantineSubtree(level, index, cause, ev, &rep.Degradation)
				}
			}
			return rep, nil
		}
		return rep, memctrl.ReplayAt("shadow table", -1, 0, "cache-tree root mismatch")
	}

	restored := make(map[[2]uint64]*sit.Node)
	for level := geo.Levels - 1; level >= 0; level-- {
		for _, index := range sortedIndices(byLevel[level]) {
			node := byLevel[level][index]
			// A node that moved cache slots may survive only as an older
			// image (its newest slot was overwritten by another node after
			// it was flushed). The NVM copy is then ahead; restoring the
			// leftover would regress monotonic counters, so skip it.
			rep.NVMReads++
			if stale := p.c.StaleNode(level, index); node.FValue() < stale.FValue() {
				continue
			}
			var pc uint64
			if geo.IsTop(level) {
				pc = p.c.Root().Counter(index)
			} else {
				pl, pi, slot := geo.Parent(level, index)
				if pn, ok := restored[[2]uint64{uint64(pl), pi}]; ok {
					pc = pn.Counter(slot)
				} else {
					pc = p.c.StaleNode(pl, pi).Counter(slot)
				}
			}
			node.SetHMAC(p.c.NodeMAC(node, pc))
			rep.MACOps++
			p.c.Device().Poke(geo.NodeAddr(level, index), nvmem.Line(node.Encode()))
			rep.NVMWrites++
			rep.NodesRecovered++
			restored[[2]uint64{uint64(level), index}] = node
			p.c.FaultEvent(memctrl.EvRecoveryStep, geo.NodeAddr(level, index))
		}
	}

	return rep, nil
}

// sortedIndices returns a level's recorded node indices in ascending order,
// so recovery restores and quarantines in the same order on every run.
func sortedIndices(nodes map[uint64]*sit.Node) []uint64 {
	indices := make([]uint64, 0, len(nodes))
	for idx := range nodes {
		indices = append(indices, idx)
	}
	slices.Sort(indices)
	return indices
}

// Storage implements memctrl.Policy (§IV-E): the shadow table in NVM, an
// extra 8 B HMAC per 64 B cache line (1/8 of the metadata cache), and a
// 64 B root register on chip.
func (p *Policy) Storage() memctrl.StorageOverhead {
	lay := p.c.Layout()
	return memctrl.StorageOverhead{
		TreeBytes:      lay.Geo.MetaBytes,
		NVMExtraBytes:  lay.ShadowBytes,
		CacheTaxBytes:  uint64(p.c.Config().MetaCacheBytes) / 8,
		OnChipNVBytes:  64,
		LeafCoverBytes: lay.Geo.LeafCover * 64,
	}
}
