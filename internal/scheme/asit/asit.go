// Package asit implements the Anubis-for-SGX-Integrity-Tree baseline
// (Zubair & Awad, ISCA'19; §IV of the Steins paper): every modification of
// a cached metadata node is persisted to a shadow table in NVM (doubling
// memory writes), and a Merkle cache-tree over the shadow slots — its root
// in an on-chip non-volatile register, its interior in volatile SRAM —
// authenticates them. Recovery reads the whole shadow table, checks it
// against the cache-tree root, and restores every recorded node, which is
// why ASIT recovers fastest (Fig. 17) while paying the highest runtime
// cost (Figs. 9-10).
package asit

import (
	"encoding/binary"
	"sort"

	"steins/internal/cache"
	"steins/internal/counter"
	"steins/internal/crypt"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// Policy is the ASIT scheme.
type Policy struct {
	c *memctrl.Controller
	// tree holds the cache-tree levels over shadow slots: tree[0][s] is
	// the hash of slot s, upper levels shrink by the tree arity. Volatile
	// SRAM: recomputed from the shadow table at recovery.
	tree [][]uint64
	// root is the cache-tree root, an on-chip non-volatile register.
	root uint64
}

const treeArity = 8

// Factory builds an ASIT policy; pass to memctrl.New.
func Factory(c *memctrl.Controller) memctrl.Policy {
	p := &Policy{c: c}
	n := c.Meta().Capacity()
	for {
		p.tree = append(p.tree, make([]uint64, n))
		if n <= treeArity {
			break
		}
		n = (n + treeArity - 1) / treeArity
	}
	// Leaf hashes must cover the empty shadow slots too: recovery hashes
	// whatever the slots hold, including ones never written.
	for s := 0; s < c.Meta().Capacity(); s++ {
		p.tree[0][s] = p.leafHash(s, nvmem.Line{})
	}
	p.root, _ = p.rebuildTree()
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
	var msg [72]byte
	copy(msg[:64], content[:])
	binary.LittleEndian.PutUint64(msg[64:], uint64(slot))
	return p.c.Config().MAC.Sum64(p.keyFor(), msg[:])
}

func (p *Policy) keyFor() crypt.Key { return p.c.Config().Key }

// interiorHash combines a group of child hashes.
func (p *Policy) interiorHash(level int, group uint64, children []uint64) uint64 {
	msg := make([]byte, 0, 8*(len(children)+2))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(level)<<32|group)
	msg = append(msg, b[:]...)
	for _, h := range children {
		binary.LittleEndian.PutUint64(b[:], h)
		msg = append(msg, b[:]...)
	}
	return p.c.Config().MAC.Sum64(p.keyFor(), msg)
}

// updatePath recomputes the cache-tree from one leaf to the root and
// returns the number of hash computations (sequential on the critical
// path, the cost §II-D calls out).
func (p *Policy) updatePath(slot int, content nvmem.Line) uint64 {
	p.tree[0][slot] = p.leafHash(slot, content)
	hashes := uint64(1)
	idx := uint64(slot)
	for l := 1; l < len(p.tree); l++ {
		idx /= treeArity
		p.tree[l][idx] = p.groupHash(l, idx)
		hashes++
	}
	p.root = p.interiorHash(len(p.tree), 0, p.tree[len(p.tree)-1])
	return hashes + 1
}

func (p *Policy) groupHash(level int, idx uint64) uint64 {
	lo := idx * treeArity
	hi := min(lo+treeArity, uint64(len(p.tree[level-1])))
	return p.interiorHash(level, idx, p.tree[level-1][lo:hi])
}

// rebuildTree recomputes every interior hash from the current leaf level
// and returns the resulting root and the number of hashes. It does not
// touch p.root: that register is the non-volatile anchor recovery compares
// against.
func (p *Policy) rebuildTree() (root uint64, hashes uint64) {
	for l := 1; l < len(p.tree); l++ {
		for idx := range p.tree[l] {
			p.tree[l][idx] = p.groupHash(l, uint64(idx))
			hashes++
		}
	}
	return p.interiorHash(len(p.tree), 0, p.tree[len(p.tree)-1]), hashes + 1
}

// OnModify implements memctrl.Policy: persist the updated node to its
// shadow slot (the 2x write traffic of §II-D) and propagate the change
// through the cache-tree to the on-chip root.
func (p *Policy) OnModify(e *cache.Entry[*sit.Node], _ bool, _ uint64) uint64 {
	content := p.slotContent(e.Payload)
	stall := p.c.Device().MustWrite(p.c.Now(), p.slotAddr(e.Slot()), content, nvmem.ClassShadow)
	hashes := p.updatePath(e.Slot(), content)
	p.c.CountHash(hashes)
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
	slots := p.c.Meta().Capacity()
	degraded := p.c.Config().DegradedRecovery

	// A node that moved cache slots leaves a stale entry in its old shadow
	// slot; both images are authentic, so keep the one with the larger
	// (monotonic) counter value per node.
	byLevel := make([]map[uint64]*sit.Node, geo.Levels)
	for k := range byLevel {
		byLevel[k] = make(map[uint64]*sit.Node)
	}
	for s := 0; s < slots; s++ {
		rep.NVMReads++
		content := p.c.Device().Peek(p.slotAddr(s))
		p.tree[0][s] = p.leafHash(s, content)
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
	recomputed, hashes := p.rebuildTree()
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
			for s := 0; s < slots; s++ {
				sev := p.c.EvidenceAt(p.slotAddr(s))
				if mc, ok := memctrl.MediaCause(sev); ok {
					cause, ev = mc, sev.String()
					break
				}
			}
			for level := range byLevel {
				for index := range byLevel[level] {
					p.c.QuarantineSubtree(level, index, cause, ev, &rep.Degradation)
				}
			}
			return rep, nil
		}
		return rep, memctrl.ReplayAt("shadow table", -1, 0, "cache-tree root mismatch")
	}

	restored := make(map[[2]uint64]*sit.Node)
	for level := geo.Levels - 1; level >= 0; level-- {
		indices := make([]uint64, 0, len(byLevel[level]))
		for idx := range byLevel[level] {
			indices = append(indices, idx)
		}
		sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
		for _, index := range indices {
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
