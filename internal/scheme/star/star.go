// Package star implements the STAR baseline (Huang & Hua, HPCA'21; §IV of
// the Steins paper): parent-counter LSBs are stored in child lines for
// recovery, dirty nodes are tracked by a multi-layer bitmap whose lines are
// cached in the memory controller (updated on BOTH clean->dirty and
// dirty->clean transitions, the extra traffic of §II-D), and a cache-tree
// (a bmt.Tree) whose leaves are per-set MACs of the dirty nodes — sorted
// by address within each set — anchors verification in an on-chip
// non-volatile root.
package star

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"steins/internal/bmt"
	"steins/internal/cache"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/rebuild"
	"steins/internal/sit"
)

// trackingIssueCycles is the critical-path cost of issuing an
// asynchronous tracking-structure access (bitmap/record line fill).
const trackingIssueCycles = 20

const (
	// lsbBits is the width of the parent-counter copy a child line carries.
	lsbBits = 16
	lsbMask = 1<<lsbBits - 1
	// nodesPerBitmapLine is how many node dirty-bits one 64 B line holds.
	nodesPerBitmapLine = nvmem.LineSize * 8
)

type bitmapLine [nvmem.LineSize]byte

// Policy is the STAR scheme.
type Policy struct {
	c *memctrl.Controller
	// lsb models the parent-counter LSBs co-located with each child line
	// (reserved node bits in the real layout, so no extra traffic).
	lsb map[memctrl.NodeRef]uint16
	// bitmap lines cached in the controller's ADR domain.
	bitmap *cache.Cache[*bitmapLine]
	// tree is the cache-tree (volatile): leaf s is set s's MAC.
	tree *bmt.Tree
	// root is the cache-tree root, an on-chip non-volatile register.
	root uint64
	// nodes and msg are setMAC's dirty-node list and macOverImages's
	// message, reused from one set update to the next.
	nodes []nodeImg
	msg   []byte
}

// Factory builds a STAR policy; pass to memctrl.New.
func Factory(c *memctrl.Controller) memctrl.Policy {
	cfg := c.Config()
	p := &Policy{
		c:      c,
		lsb:    make(map[memctrl.NodeRef]uint16),
		bitmap: cache.New[*bitmapLine](cfg.RecordCacheLines*nvmem.LineSize, cfg.AuxCacheWays, nvmem.LineSize),
	}
	// Set-MACs must cover empty sets too: recovery recomputes a MAC for
	// every set, dirty members or not.
	setMACs := make([]uint64, c.Meta().Sets())
	for s := range setMACs {
		setMACs[s] = p.macOverImages(uint64(s), nil)
	}
	p.tree = bmt.New(setMACs, cfg.Key, cfg.MAC)
	p.root = p.tree.Root()
	return p
}

// Name implements memctrl.Policy.
func (p *Policy) Name() string { return "STAR" }

// CounterGen implements memctrl.Policy: classic self-increment SIT.
func (p *Policy) CounterGen() bool { return false }

// --- cache-tree over set-MACs -------------------------------------------------

// nodeImg is the authenticated image of one dirty node in a set-MAC.
type nodeImg struct {
	addr uint64
	ctr  [56]byte
}

// setMAC authenticates the dirty nodes of one metadata cache set, sorted
// by address (the sorting cost §II-D attributes to STAR).
func (p *Policy) setMAC(set int) (uint64, uint64) {
	p.nodes = p.nodes[:0]
	p.c.Meta().EntriesInSet(set, func(e *cache.Entry[*sit.Node]) {
		if e.Dirty {
			p.nodes = append(p.nodes, nodeImg{addr: e.Addr, ctr: e.Payload.CounterBytes()})
		}
	})
	sortByAddr(p.nodes)
	return p.macOverImages(uint64(set), p.nodes), uint64(len(p.nodes))
}

// sortByAddr sorts node images by address, which is unique within a set.
func sortByAddr(nodes []nodeImg) {
	slices.SortFunc(nodes, func(a, b nodeImg) int { return cmp.Compare(a.addr, b.addr) })
}

// macOverImages is a set's MAC over its sorted dirty nodes: the set index,
// then each node's address and counter bytes, little-endian.
func (p *Policy) macOverImages(set uint64, nodes []nodeImg) uint64 {
	msg := binary.LittleEndian.AppendUint64(p.msg[:0], set)
	for _, n := range nodes {
		msg = binary.LittleEndian.AppendUint64(msg, n.addr)
		msg = append(msg, n.ctr[:]...)
	}
	p.msg = msg
	return p.c.Config().MAC.Sum64(p.c.Config().Key, msg)
}

// updateSet recomputes one set's MAC and the path to the root; returns the
// critical-path cycles (hashes plus the sort).
func (p *Policy) updateSet(set int) uint64 {
	mac, n := p.setMAC(set)
	p.c.CountHash(p.tree.Set(set, mac))
	p.root = p.tree.Root()
	// The set-MAC is on the critical path (it must see the sorted dirty
	// set, hence the ~n-cycle comparator sort); the upper levels pipeline
	// behind it on the dedicated engine.
	return p.c.Config().HashCycles + n
}

// --- bitmap -------------------------------------------------------------------

// setBit flips the dirty bit of a node offset, going through the cached
// bitmap lines (missing lines are fetched; dirty victims written back).
// The bitmap is multi-layered (the "multi-layer bitmap" of §II-D): a
// second level holds one bit per first-level line, letting recovery skip
// lines with no dirty nodes. A first-level line transitioning between
// all-zero and non-zero updates the second level too — the "multiple
// memory access" overhead the paper describes.
func (p *Policy) setBit(level int, index uint64, val bool) uint64 {
	lay := p.c.Layout()
	off := uint64(lay.Geo.Offset(level, index))
	lineIdx := off / nodesPerBitmapLine
	bit := off % nodesPerBitmapLine

	be, cycles := p.bitmapLine(lay.BitmapBase + lineIdx*nvmem.LineSize)
	wasEmpty := *be.Payload == bitmapLine{}
	byteIdx, bitIdx := bit/8, uint(bit%8)
	if val {
		be.Payload[byteIdx] |= 1 << bitIdx
	} else {
		be.Payload[byteIdx] &^= 1 << bitIdx
	}
	be.Dirty = true
	isEmpty := *be.Payload == bitmapLine{}
	if wasEmpty != isEmpty {
		cycles += p.setL1Bit(lineIdx, !isEmpty)
	}
	if val {
		p.c.FaultEvent(memctrl.EvRecordAppend, be.Addr)
	}
	return cycles + 1
}

// setL1Bit maintains the second bitmap layer: bit i covers first-level
// line i.
func (p *Policy) setL1Bit(l0Line uint64, val bool) uint64 {
	l1Index := l0Line / nodesPerBitmapLine
	bit := l0Line % nodesPerBitmapLine
	be, cycles := p.bitmapLine(p.l1Base() + l1Index*nvmem.LineSize)
	byteIdx, bitIdx := bit/8, uint(bit%8)
	if val {
		be.Payload[byteIdx] |= 1 << bitIdx
	} else {
		be.Payload[byteIdx] &^= 1 << bitIdx
	}
	be.Dirty = true
	return cycles + 1
}

// l1Base places the second layer after the first within the bitmap region
// (the region is sized with line-rounding slack; the layout reserves the
// whole region for STAR).
func (p *Policy) l1Base() uint64 {
	lay := p.c.Layout()
	return lay.BitmapBase + lay.L1BitmapOffset
}

// bitmapLine returns the cached entry for a bitmap line, filling on miss.
func (p *Policy) bitmapLine(addr uint64) (*cache.Entry[*bitmapLine], uint64) {
	var cycles uint64
	be, ok := p.bitmap.Lookup(addr)
	if !ok {
		// Bitmap maintenance is fire-and-forget: the miss read occupies
		// NVM bandwidth (traffic, energy) but the eviction does not block
		// on it; only the issue slot is on the critical path.
		line, _, err := p.c.ReadLineRetried(p.c.Now(), addr, nvmem.ClassBitmap)
		if err != nil {
			// Losing a bitmap line only loses dirty marks; recovery treats
			// a lost mark as data loss, runtime continues with a fresh line.
			line = nvmem.Line{}
		}
		cycles += trackingIssueCycles
		bl := bitmapLine(line)
		var victim cache.Entry[*bitmapLine]
		var evicted bool
		be, victim, evicted = p.bitmap.Insert(addr, &bl, false)
		if evicted && victim.Dirty {
			cycles += p.c.Device().MustWrite(p.c.Now()+cycles, victim.Addr,
				nvmem.Line(*victim.Payload), nvmem.ClassBitmap)
		}
	}
	return be, cycles
}

// --- policy hooks ---------------------------------------------------------------

// OnModify implements memctrl.Policy: recompute the set-MAC path (with its
// sort) and, on a clean->dirty transition, set the bitmap bit.
func (p *Policy) OnModify(e *cache.Entry[*sit.Node], wasClean bool, _ uint64) uint64 {
	cycles := p.updateSet(p.c.Meta().SetOf(e.Addr))
	if wasClean {
		cycles += p.setBit(e.Payload.Level, e.Payload.Index, true)
	}
	return cycles
}

// EvictDirty implements memctrl.Policy: the classic write-back, plus
// storing the new parent-counter LSBs in the child line, clearing the
// bitmap bit (the dirty->clean update Steins avoids), and refreshing the
// vacated set's MAC.
func (p *Policy) EvictDirty(victim *sit.Node) (uint64, error) {
	geo := &p.c.Layout().Geo
	cycles, newPC, err := p.classicEvictCapture(victim)
	if err != nil {
		return cycles, err
	}
	p.lsb[memctrl.NodeRef{Level: victim.Level, Index: victim.Index}] = uint16(newPC & lsbMask)
	cycles += p.setBit(victim.Level, victim.Index, false)
	// The vacated set's MAC refresh runs on the background engine: nothing
	// later in this eviction depends on it.
	p.updateSet(p.c.Meta().SetOf(geo.NodeAddr(victim.Level, victim.Index)))
	return cycles, nil
}

// classicEvictCapture mirrors Controller.ClassicEvict but reports the new
// parent counter so its LSBs can be stored in the child.
func (p *Policy) classicEvictCapture(victim *sit.Node) (uint64, uint64, error) {
	c := p.c
	geo := &c.Layout().Geo
	var cycles uint64
	var newPC uint64
	if geo.IsTop(victim.Level) {
		newPC = c.Root().Counter(victim.Index) + 1
		c.Root().SetCounter(victim.Index, newPC)
	} else {
		pl, pi, slot := geo.Parent(victim.Level, victim.Index)
		pe, pcyc, err := c.FetchNode(pl, pi)
		cycles += pcyc
		if err != nil {
			return cycles, 0, err
		}
		newPC = pe.Payload.Counter(slot) + 1
		cycles += c.SetParentCounter(pe, slot, newPC, 1)
	}
	return cycles + c.SealAndWriteNode(victim, newPC), newPC, nil
}

// BeforeRead implements memctrl.Policy.
func (p *Policy) BeforeRead() (uint64, error) { return 0, nil }

// ParentCounterOverride implements memctrl.Policy.
func (p *Policy) ParentCounterOverride(int, uint64) (uint64, bool) { return 0, false }

// OnCrash implements memctrl.Policy: ADR flushes the cached bitmap lines.
func (p *Policy) OnCrash() {
	p.bitmap.ForEach(func(e *cache.Entry[*bitmapLine]) {
		if e.Dirty {
			p.c.Device().Poke(e.Addr, nvmem.Line(*e.Payload))
		}
	})
	p.bitmap.Clear()
}

// Storage implements memctrl.Policy (§IV-E): the bitmap in NVM, an 8 B MAC
// per 8-way set (1/64 of the metadata cache), and a 64 B root register.
func (p *Policy) Storage() memctrl.StorageOverhead {
	lay := p.c.Layout()
	return memctrl.StorageOverhead{
		TreeBytes:      lay.Geo.MetaBytes,
		NVMExtraBytes:  lay.BitmapBytes,
		CacheTaxBytes:  uint64(p.c.Config().MetaCacheBytes) / 64,
		OnChipNVBytes:  64,
		OnChipSRBytes:  uint64(p.c.Config().RecordCacheLines) * nvmem.LineSize,
		LeafCoverBytes: lay.Geo.LeafCover * 64,
	}
}

// LSB returns the stored parent-counter LSBs for a node (tests use it).
func (p *Policy) LSB(level int, index uint64) (uint16, bool) {
	v, ok := p.lsb[memctrl.NodeRef{Level: level, Index: index}]
	return v, ok
}

// Recover implements memctrl.Policy: scan the bitmap for dirty nodes,
// rebuild each from the parent-counter LSBs its children carry (data tag
// hints for leaves), verify the recomputed per-set MACs against the
// surviving cache-tree root, and reinstate the nodes into the metadata
// cache marked dirty.
func (p *Policy) Recover() (memctrl.RecoveryReport, error) {
	rep := memctrl.RecoveryReport{Scheme: p.Name()}
	lay := p.c.Layout()
	geo := &lay.Geo

	// 1. Bitmap scan. The second layer prunes it: only first-level lines
	//    whose L1 bit is set are read, so the constant term scales with
	//    the dirty footprint rather than the whole tree.
	var dirty []memctrl.NodeRef
	l0Lines := lay.L1BitmapOffset / nvmem.LineSize
	l1Lines := (l0Lines + nodesPerBitmapLine - 1) / nodesPerBitmapLine
	for l1 := uint64(0); l1 < l1Lines; l1++ {
		rep.NVMReads++
		l1Line := p.c.Device().Peek(p.l1Base() + l1*nvmem.LineSize)
		for lb := uint64(0); lb < nodesPerBitmapLine; lb++ {
			if l1Line[lb/8]&(1<<(lb%8)) == 0 {
				continue
			}
			li := l1*nodesPerBitmapLine + lb
			if li >= l0Lines {
				break
			}
			rep.NVMReads++
			line := p.c.Device().Peek(lay.BitmapBase + li*nvmem.LineSize)
			for b := uint64(0); b < nodesPerBitmapLine; b++ {
				if line[b/8]&(1<<(b%8)) == 0 {
					continue
				}
				off := uint32(li*nodesPerBitmapLine + b)
				if level, index, ok := geo.NodeAtOffset(off); ok {
					dirty = append(dirty, memctrl.NodeRef{Level: level, Index: index})
				}
			}
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].Level != dirty[j].Level {
			return dirty[i].Level > dirty[j].Level
		}
		return dirty[i].Index < dirty[j].Index
	})

	// 2. Rebuild each dirty node from the LSBs its children carry. Leaves
	//    go through the shared exact reconstruction: every covered block's
	//    counter is MAC-proven (fast candidate, then base-less search) or
	//    hint-pinned where media evidence says the ciphertext is gone, so a
	//    damaged leaf still yields its exact crash-time counters and only
	//    its unreadable coverage is quarantined.
	degraded := p.c.Config().DegradedRecovery
	rec := &rebuild.LeafRecovery{}
	recovered := make(map[memctrl.NodeRef]*sit.Node)
	for _, k := range dirty {
		node, err := p.recoverNode(&rep, rec, k, degraded)
		if err != nil {
			return rep, err
		}
		recovered[k] = node
		rep.NodesRecovered++
		p.c.FaultEvent(memctrl.EvRecoveryStep, p.c.Layout().Geo.NodeAddr(k.Level, k.Index))
	}

	// 3. Verify against the cache-tree root: recompute the per-set MACs
	//    from the recovered nodes (sorted by address within each set).
	//    Every recorded-dirty node participates — quarantines only fence
	//    data coverage, the node counters themselves are exact — so the
	//    surviving root arbitrates replay over the full dirty set. A
	//    mismatch fails closed (nothing recovered can be trusted, the
	//    whole tree is condemned) unless genuine double media destruction
	//    left a block's counter unknowable with no evidence-free damage
	//    beside it: only that unforgeable combination forgives the proof.
	if err := p.verifyRecovered(&rep, recovered); err != nil {
		if !degraded {
			return rep, err
		}
		if rec.Unpinnable == 0 || rec.AttackShaped > 0 {
			p.c.QuarantineAll(memctrl.CauseReplayShaped,
				"STAR cache-tree root mismatch over the recorded dirty set", &rep.Degradation)
			// Re-anchor the cache-tree on the post-crash (empty) cache:
			// the durable quarantine records now carry the verdict, and
			// a root left pointing at the lost dirty set would only
			// re-fence every later recovery — resetting re-admission
			// progress — without fencing anything new.
			p.reanchor(&rep)
			return rep, nil
		}
	}

	// 4. Reinstate the recovered nodes into the metadata cache marked
	//    dirty, top level first, as STAR's runtime expects; the bitmap
	//    already describes exactly this dirty set, so it stays. The
	//    set-MACs and cache-tree are then recomputed from the final cache
	//    state (evictions during reinstatement go through the normal
	//    write-back and keep the bookkeeping coherent).
	for level := geo.Levels - 1; level >= 0; level-- {
		for _, k := range dirty {
			if k.Level != level {
				continue
			}
			node := recovered[k]
			addr := geo.NodeAddr(level, k.Index)
			if e, ok := p.c.Meta().Probe(addr); ok {
				e.Payload = node
				e.Dirty = true
				continue
			}
			for {
				_, victim, evicted := p.c.Meta().Insert(addr, node, true)
				if !evicted || !victim.Dirty {
					break
				}
				if _, err := p.c.EvictDirtyNode(victim.Payload); err != nil {
					return rep, err
				}
				if _, ok := p.c.Meta().Probe(addr); ok {
					break
				}
			}
		}
	}
	p.reanchor(&rep)
	return rep, nil
}

// reanchor recomputes every set-MAC from the metadata cache, rebuilds the
// cache-tree over them and moves the on-chip root to it.
func (p *Policy) reanchor(rep *memctrl.RecoveryReport) {
	leaves := p.tree.Leaves()
	for s := range leaves {
		leaves[s], _ = p.setMAC(s)
	}
	root, hashes := p.tree.Rebuild()
	rep.MACOps += uint64(len(leaves)) + hashes
	p.root = root
}

// recoverNode rebuilds one dirty node: counter i extends the stale value's
// high bits with the LSBs stored in child i (or, at the leaf level, with
// the counter recovered from the covered data blocks' tags through the
// shared exact reconstruction — the Osiris-style search STAR shares with
// the other recovery schemes, plus hint pinning for media-destroyed
// blocks).
func (p *Policy) recoverNode(rep *memctrl.RecoveryReport, rec *rebuild.LeafRecovery, k memctrl.NodeRef, degraded bool) (*sit.Node, error) {
	geo := &p.c.Layout().Geo
	rep.NVMReads++ // stale base
	stale := p.c.StaleNode(k.Level, k.Index)
	if k.Level == 0 {
		return rebuild.LeafFromData(p.c, rep, rec, k.Index, stale, degraded)
	}
	node := &sit.Node{Level: k.Level, Index: k.Index}
	for i := 0; i < counter.Arity; i++ {
		childIdx := k.Index*counter.Arity + uint64(i)
		if childIdx >= geo.LevelNodes[k.Level-1] {
			continue
		}
		rep.NVMReads++ // child line carries the LSBs
		lsb, ok := p.lsb[memctrl.NodeRef{Level: k.Level - 1, Index: childIdx}]
		if !ok {
			// Child never flushed: parent counter slot is untouched.
			node.SetCounter(i, stale.Counter(i))
			continue
		}
		node.SetCounter(i, extendLSB(stale.Counter(i), lsb))
	}
	return node, nil
}

// extendLSB returns the smallest value >= stale whose low bits equal lsb.
func extendLSB(stale uint64, lsb uint16) uint64 {
	cand := stale&^uint64(lsbMask) | uint64(lsb)
	if cand < stale {
		cand += lsbMask + 1
	}
	return cand
}

// verifyRecovered recomputes every per-set MAC from the recovered dirty
// nodes and compares the rebuilt cache-tree with the surviving root. The
// set-MACs are volatile, lost with the crash: the recomputed ones replace
// them.
func (p *Policy) verifyRecovered(rep *memctrl.RecoveryReport, recovered map[memctrl.NodeRef]*sit.Node) error {
	geo := &p.c.Layout().Geo
	bySet := make(map[int][]nodeImg)
	for k, n := range recovered {
		addr := geo.NodeAddr(k.Level, k.Index)
		bySet[p.c.Meta().SetOf(addr)] = append(bySet[p.c.Meta().SetOf(addr)], nodeImg{addr, n.CounterBytes()})
	}
	leaves := p.tree.Leaves()
	for set := range leaves {
		nodes := bySet[set]
		sortByAddr(nodes)
		leaves[set] = p.macOverImages(uint64(set), nodes)
		rep.MACOps++
	}
	root, hashes := p.tree.Rebuild()
	rep.MACOps += hashes
	if root != p.root {
		return memctrl.ReplayAt("dirty set", -1, 0, "STAR cache-tree root mismatch")
	}
	return nil
}
