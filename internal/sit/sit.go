// Package sit models the SGX-style integrity tree of §II-C: an arity-8
// tree of 64-byte counter nodes whose HMACs bind each node to the counter
// its parent holds for it, rooted in an on-chip non-volatile register.
//
// The package owns the static structure — geometry (level sizes, NVM
// placement, parent/child maps), the decoded node representation, the
// on-chip root, and the HMAC input format. The dynamic behaviour (caching,
// lazy updates, flush, recovery) lives in the memory controller and the
// per-scheme policies built on top of it.
package sit

import (
	"encoding/binary"
	"fmt"

	"steins/internal/counter"
	"steins/internal/crypt"
)

// LineSize is the node size in bytes.
const LineSize = 64

// RootSlots is the fan-in of the on-chip root. The root is an on-chip
// register file rather than a 64-byte NVM line, so it covers up to 64
// top-level nodes; this yields the paper's level counts (9 levels
// including root with general leaves over 16 GB, 8 with split leaves).
const RootSlots = 64

// Geometry describes the tree laid over a data region: how many levels, how
// many nodes per level, and where each node lives in NVM.
type Geometry struct {
	DataBytes  uint64
	SplitLeaf  bool
	LeafCover  uint64   // data lines covered per leaf: 8 general, 64 split
	DataLines  uint64   // number of 64 B data lines
	Levels     int      // number of NVM-resident levels (root excluded)
	LevelNodes []uint64 // nodes at each level, leaf = level 0
	LevelBase  []uint64 // NVM base address of each level
	MetaBase   uint64   // start of the metadata region
	MetaBytes  uint64   // total bytes of NVM-resident tree nodes
}

// NewGeometry computes the tree over dataBytes of user data, placing the
// node levels contiguously from metaBase. Levels shrink by the tree arity
// until at most RootSlots nodes remain; that level is the top and its
// parent is the on-chip root.
func NewGeometry(dataBytes uint64, splitLeaf bool, metaBase uint64) Geometry {
	if dataBytes == 0 || dataBytes%LineSize != 0 {
		panic("sit: data size must be a positive multiple of 64 B")
	}
	if metaBase%LineSize != 0 {
		panic("sit: metadata base must be 64 B aligned")
	}
	g := Geometry{DataBytes: dataBytes, SplitLeaf: splitLeaf, MetaBase: metaBase}
	g.LeafCover = counter.Arity
	if splitLeaf {
		g.LeafCover = counter.SplitArity
	}
	g.DataLines = dataBytes / LineSize
	n := ceilDiv(g.DataLines, g.LeafCover)
	for {
		g.LevelNodes = append(g.LevelNodes, n)
		if n <= RootSlots {
			break
		}
		n = ceilDiv(n, counter.Arity)
	}
	g.Levels = len(g.LevelNodes)
	g.LevelBase = make([]uint64, g.Levels)
	addr := metaBase
	for k := 0; k < g.Levels; k++ {
		g.LevelBase[k] = addr
		addr += g.LevelNodes[k] * LineSize
	}
	g.MetaBytes = addr - metaBase
	return g
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// LeafOfData maps a data line address to its covering leaf node index and
// the counter slot within that leaf.
func (g *Geometry) LeafOfData(addr uint64) (leaf uint64, slot int) {
	if addr >= g.DataBytes {
		panic(fmt.Sprintf("sit: data address %#x outside data region", addr))
	}
	line := addr / LineSize
	return line / g.LeafCover, int(line % g.LeafCover)
}

// DataAddr is the inverse of LeafOfData: the address of the slot-th data
// line covered by the given leaf.
func (g *Geometry) DataAddr(leaf uint64, slot int) uint64 {
	return (leaf*g.LeafCover + uint64(slot)) * LineSize
}

// NodeAddr returns the NVM address of node (level, index).
func (g *Geometry) NodeAddr(level int, index uint64) uint64 {
	if level < 0 || level >= g.Levels {
		panic(fmt.Sprintf("sit: level %d out of range", level))
	}
	if index >= g.LevelNodes[level] {
		panic(fmt.Sprintf("sit: node %d beyond level %d size %d", index, level, g.LevelNodes[level]))
	}
	return g.LevelBase[level] + index*LineSize
}

// NodeAt is the inverse of NodeAddr. ok is false for addresses outside the
// tree region.
func (g *Geometry) NodeAt(addr uint64) (level int, index uint64, ok bool) {
	if addr < g.MetaBase || addr >= g.MetaBase+g.MetaBytes || addr%LineSize != 0 {
		return 0, 0, false
	}
	for k := g.Levels - 1; k >= 0; k-- {
		if addr >= g.LevelBase[k] {
			return k, (addr - g.LevelBase[k]) / LineSize, true
		}
	}
	return 0, 0, false
}

// Offset returns the node's position within the metadata region in line
// units; Steins' 4-byte record entries store these (§III-C).
func (g *Geometry) Offset(level int, index uint64) uint32 {
	return uint32((g.NodeAddr(level, index) - g.MetaBase) / LineSize)
}

// NodeAtOffset resolves a record offset back to (level, index).
func (g *Geometry) NodeAtOffset(off uint32) (level int, index uint64, ok bool) {
	return g.NodeAt(g.MetaBase + uint64(off)*LineSize)
}

// Parent returns the coordinates of the parent node and the counter slot
// the child occupies there. IsTop nodes have no NVM parent (the root holds
// their counters); calling Parent on them panics.
func (g *Geometry) Parent(level int, index uint64) (plevel int, pindex uint64, slot int) {
	if g.IsTop(level) {
		panic("sit: top-level nodes have no NVM parent")
	}
	return level + 1, index / counter.Arity, int(index % counter.Arity)
}

// IsTop reports whether level is the highest NVM-resident level (its
// parent is the on-chip root).
func (g *Geometry) IsTop(level int) bool { return level == g.Levels-1 }

// TotalNodes returns the number of NVM-resident nodes.
func (g *Geometry) TotalNodes() uint64 {
	var t uint64
	for _, n := range g.LevelNodes {
		t += n
	}
	return t
}

// HeightIncludingRoot is the paper's "height" figure: NVM levels plus the
// on-chip root.
func (g *Geometry) HeightIncludingRoot() int { return g.Levels + 1 }

// --- Node ----------------------------------------------------------------

// Node is a decoded SIT node. Exactly one of the two bodies is active:
// split leaves in SC mode use Split, everything else uses Gen.
type Node struct {
	Level   int
	Index   uint64
	IsSplit bool
	Gen     counter.General
	Split   counter.Split
	// WritesSinceFlush counts counter increments since the node last
	// reached NVM; the controller's write-through guard (§II-D) keeps it
	// below the recovery search window. Not part of the 64 B encoding.
	WritesSinceFlush uint64
}

// DecodeNode unpacks a 64-byte line into a node at the given coordinates;
// split selects the split-leaf layout (only valid at level 0).
func DecodeNode(level int, index uint64, split bool, b counter.Block) *Node {
	n := &Node{Level: level, Index: index, IsSplit: split}
	if split {
		if level != 0 {
			panic("sit: split layout only valid at leaf level")
		}
		n.Split = counter.DecodeSplit(b)
	} else {
		n.Gen = counter.DecodeGeneral(b)
	}
	return n
}

// Encode packs the node into its 64-byte NVM form.
func (n *Node) Encode() counter.Block {
	if n.IsSplit {
		return n.Split.Encode()
	}
	return n.Gen.Encode()
}

// FValue is the node's generated parent counter under Steins: Eq. 1 for
// general nodes, Eq. 2 for split leaves. It also serves as the "sum of
// counters" scalar that LIncs accumulate (footnote 1 of §III-E).
func (n *Node) FValue() uint64 {
	if n.IsSplit {
		return n.Split.Parent()
	}
	return n.Gen.Sum()
}

// HMAC returns the node's stored HMAC field.
func (n *Node) HMAC() uint64 {
	if n.IsSplit {
		return n.Split.HMAC
	}
	return n.Gen.HMAC
}

// SetHMAC stores the HMAC field.
func (n *Node) SetHMAC(h uint64) {
	if n.IsSplit {
		n.Split.HMAC = h
	} else {
		n.Gen.HMAC = h
	}
}

// CounterBytes returns the 56-byte counter region (the HMAC message body).
func (n *Node) CounterBytes() [56]byte {
	if n.IsSplit {
		return n.Split.CounterBytes()
	}
	return n.Gen.CounterBytes()
}

// Counter returns counter slot i of a general node.
func (n *Node) Counter(i int) uint64 {
	if n.IsSplit {
		panic("sit: Counter on split leaf; use Split accessors")
	}
	return n.Gen.C[i]
}

// SetCounter stores counter slot i of a general node.
func (n *Node) SetCounter(i int, v uint64) {
	if n.IsSplit {
		panic("sit: SetCounter on split leaf")
	}
	n.Gen.C[i] = v & counter.CounterMask
}

// Clone returns a deep copy; recovery verification compares recovered
// nodes against untouched stale copies.
func (n *Node) Clone() *Node {
	c := *n
	return &c
}

// nodeRecordLen is the size of a node's checkpoint record: level, index,
// the split flag, both bodies (general counters and HMAC; split major,
// one byte per minor, HMAC) and WritesSinceFlush.
const nodeRecordLen = 8 + 8 + 1 + 8*(counter.Arity+1) + 8 + counter.SplitArity + 8 + 8

// GobEncode implements gob.GobEncoder: a checkpointed node is one fixed
// little-endian record rather than a reflected struct, whose 64 minors gob
// would otherwise move one by one.
func (n *Node) GobEncode() ([]byte, error) {
	b := make([]byte, 0, nodeRecordLen)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(n.Level)))
	b = binary.LittleEndian.AppendUint64(b, n.Index)
	if n.IsSplit {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, c := range n.Gen.C {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	b = binary.LittleEndian.AppendUint64(b, n.Gen.HMAC)
	b = binary.LittleEndian.AppendUint64(b, n.Split.Major)
	b = append(b, n.Split.Minor[:]...)
	b = binary.LittleEndian.AppendUint64(b, n.Split.HMAC)
	return binary.LittleEndian.AppendUint64(b, n.WritesSinceFlush), nil
}

// GobDecode implements gob.GobDecoder. A record of another length, a split
// flag other than 0 or 1, or a minor counter outside its 6 bits is refused,
// so every accepted record re-encodes to the same bytes.
func (n *Node) GobDecode(b []byte) error {
	if len(b) != nodeRecordLen {
		return fmt.Errorf("sit: node record of %d bytes, want %d", len(b), nodeRecordLen)
	}
	if b[16] > 1 {
		return fmt.Errorf("sit: node split flag %d, want 0 or 1", b[16])
	}
	n.Level = int(int64(binary.LittleEndian.Uint64(b)))
	n.Index = binary.LittleEndian.Uint64(b[8:])
	n.IsSplit = b[16] == 1
	b = b[17:]
	for i := range n.Gen.C {
		n.Gen.C[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	b = b[8*counter.Arity:]
	n.Gen.HMAC = binary.LittleEndian.Uint64(b)
	n.Split.Major = binary.LittleEndian.Uint64(b[8:])
	b = b[16:]
	for i, m := range b[:counter.SplitArity] {
		if m > counter.MinorMax {
			return fmt.Errorf("sit: node minor counter %d is %d, past its %d bits", i, m, counter.MinorBits)
		}
		n.Split.Minor[i] = m
	}
	b = b[counter.SplitArity:]
	n.Split.HMAC = binary.LittleEndian.Uint64(b)
	n.WritesSinceFlush = binary.LittleEndian.Uint64(b[8:])
	return nil
}

// --- Root ------------------------------------------------------------------

// Root is the on-chip non-volatile root register file: one counter per
// top-level node. It is inside the trusted processor domain and survives
// crashes; the threat model treats it as invulnerable.
type Root struct {
	C [RootSlots]uint64
}

// Counter returns the root counter covering top-level node idx.
func (r *Root) Counter(idx uint64) uint64 {
	if idx >= RootSlots {
		panic("sit: root slot out of range")
	}
	return r.C[idx]
}

// SetCounter stores the root counter covering top-level node idx.
func (r *Root) SetCounter(idx uint64, v uint64) {
	if idx >= RootSlots {
		panic("sit: root slot out of range")
	}
	r.C[idx] = v
}

// --- MAC construction --------------------------------------------------------

// NodeMAC computes a node's HMAC: keyed MAC over the counter region, the
// node's NVM address, and the counter its parent holds for it (Fig. 3).
func NodeMAC(mac crypt.MAC, key crypt.Key, nodeAddr uint64, counters [56]byte, parentCounter uint64) uint64 {
	var msg [72]byte
	return NodeMACInto(&msg, mac, key, nodeAddr, counters, parentCounter)
}

// NodeMACInto is NodeMAC with a caller-provided message buffer. Passing a
// stack buffer into the MAC interface forces it to the heap (the escape
// analysis cannot see through the interface call), so per-request hot
// paths hand in a reusable scratch buffer instead.
func NodeMACInto(msg *[72]byte, mac crypt.MAC, key crypt.Key, nodeAddr uint64, counters [56]byte, parentCounter uint64) uint64 {
	copy(msg[:56], counters[:])
	binary.LittleEndian.PutUint64(msg[56:64], nodeAddr)
	binary.LittleEndian.PutUint64(msg[64:72], parentCounter)
	return mac.Sum64(key, msg[:])
}

// DataMACInto computes the per-data-block HMAC binding ciphertext, address
// and encryption counter (§II-C) in a caller-provided message buffer (see
// NodeMACInto for why); recovery searches counter candidates against it
// (Osiris-style) to restore stale leaf counters.
func DataMACInto(msg *[80]byte, mac crypt.MAC, key crypt.Key, dataAddr uint64, ciphertext *[64]byte, encCounter uint64) uint64 {
	PutDataMACMsg(msg, dataAddr, ciphertext, encCounter)
	return mac.Sum64(key, msg[:])
}

// DataMACMsgSize is the byte length of a DataMACInto message: 64-byte
// ciphertext, 8-byte address, 8-byte encryption counter.
const DataMACMsgSize = 80

// PutDataMACMsg packs the DataMACInto message into msg. The encryption
// counter is the message's last little-endian word, the shape
// crypt.SearchCounter takes, so a counter search packs the ciphertext and
// address once and varies only the counter.
func PutDataMACMsg(msg *[DataMACMsgSize]byte, dataAddr uint64, ciphertext *[64]byte, encCounter uint64) {
	copy(msg[:64], ciphertext[:])
	binary.LittleEndian.PutUint64(msg[64:72], dataAddr)
	binary.LittleEndian.PutUint64(msg[72:80], encCounter)
}
