package sit

import (
	"testing"
	"testing/quick"

	"steins/internal/counter"
	"steins/internal/crypt"
)

func TestGeometryPaperHeights(t *testing.T) {
	// Table I: 16 GB NVM, height 9 including root with general leaves,
	// 8 with split leaves.
	gc := NewGeometry(16<<30, false, 16<<30)
	if got := gc.HeightIncludingRoot(); got != 9 {
		t.Fatalf("GC height = %d, want 9", got)
	}
	sc := NewGeometry(16<<30, true, 16<<30)
	if got := sc.HeightIncludingRoot(); got != 8 {
		t.Fatalf("SC height = %d, want 8", got)
	}
}

func TestGeometryLeafCounts(t *testing.T) {
	gc := NewGeometry(16<<30, false, 16<<30)
	if gc.LevelNodes[0] != (16<<30)/64/8 {
		t.Fatalf("GC leaves = %d", gc.LevelNodes[0])
	}
	sc := NewGeometry(16<<30, true, 16<<30)
	if sc.LevelNodes[0] != (16<<30)/64/64 {
		t.Fatalf("SC leaves = %d", sc.LevelNodes[0])
	}
}

func TestGeometryStorageOverheadPaper(t *testing.T) {
	// §IV-E: general leaves take 1/8 of data (2 GB for 16 GB); split leaves
	// take 1/64 (256 MB).
	gc := NewGeometry(16<<30, false, 16<<30)
	if got := gc.LevelNodes[0] * LineSize; got != 2<<30 {
		t.Fatalf("GC leaf storage = %d, want 2 GB", got)
	}
	sc := NewGeometry(16<<30, true, 16<<30)
	if got := sc.LevelNodes[0] * LineSize; got != 256<<20 {
		t.Fatalf("SC leaf storage = %d, want 256 MB", got)
	}
	if sc.MetaBytes >= gc.MetaBytes {
		t.Fatal("SC tree not smaller than GC tree")
	}
}

func TestGeometryLevelShrink(t *testing.T) {
	g := NewGeometry(1<<30, false, 1<<30)
	for k := 1; k < g.Levels; k++ {
		want := (g.LevelNodes[k-1] + counter.Arity - 1) / counter.Arity
		if g.LevelNodes[k] != want {
			t.Fatalf("level %d has %d nodes, want %d", k, g.LevelNodes[k], want)
		}
	}
	top := g.LevelNodes[g.Levels-1]
	if top > RootSlots {
		t.Fatalf("top level %d nodes > root fan-in %d", top, RootSlots)
	}
}

func TestGeometryLevelBasesContiguous(t *testing.T) {
	g := NewGeometry(1<<26, false, 1<<26)
	for k := 1; k < g.Levels; k++ {
		want := g.LevelBase[k-1] + g.LevelNodes[k-1]*LineSize
		if g.LevelBase[k] != want {
			t.Fatalf("level %d base %#x, want %#x", k, g.LevelBase[k], want)
		}
	}
	if g.MetaBytes != g.TotalNodes()*LineSize {
		t.Fatalf("MetaBytes %d != TotalNodes*64 %d", g.MetaBytes, g.TotalNodes()*LineSize)
	}
}

func TestLeafOfDataRoundTrip(t *testing.T) {
	for _, split := range []bool{false, true} {
		g := NewGeometry(1<<26, split, 1<<26)
		f := func(line uint64) bool {
			addr := (line % g.DataLines) * LineSize
			leaf, slot := g.LeafOfData(addr)
			return g.DataAddr(leaf, slot) == addr && leaf < g.LevelNodes[0]
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("split=%v: %v", split, err)
		}
	}
}

func TestNodeAddrRoundTrip(t *testing.T) {
	g := NewGeometry(1<<26, false, 1<<26)
	for level := 0; level < g.Levels; level++ {
		for _, idx := range []uint64{0, g.LevelNodes[level] / 2, g.LevelNodes[level] - 1} {
			addr := g.NodeAddr(level, idx)
			l2, i2, ok := g.NodeAt(addr)
			if !ok || l2 != level || i2 != idx {
				t.Fatalf("NodeAt(NodeAddr(%d,%d)) = (%d,%d,%v)", level, idx, l2, i2, ok)
			}
		}
	}
}

func TestNodeAtRejectsOutside(t *testing.T) {
	g := NewGeometry(1<<26, false, 1<<26)
	if _, _, ok := g.NodeAt(0); ok {
		t.Fatal("data address resolved as node")
	}
	if _, _, ok := g.NodeAt(g.MetaBase + g.MetaBytes); ok {
		t.Fatal("past-end address resolved as node")
	}
	if _, _, ok := g.NodeAt(g.MetaBase + 1); ok {
		t.Fatal("unaligned address resolved as node")
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	g := NewGeometry(1<<26, true, 1<<26)
	for level := 0; level < g.Levels; level++ {
		idx := g.LevelNodes[level] - 1
		off := g.Offset(level, idx)
		l2, i2, ok := g.NodeAtOffset(off)
		if !ok || l2 != level || i2 != idx {
			t.Fatalf("offset round trip (%d,%d) -> %d -> (%d,%d,%v)", level, idx, off, l2, i2, ok)
		}
	}
}

func TestParentChain(t *testing.T) {
	g := NewGeometry(1<<26, false, 1<<26)
	level, idx := 0, uint64(1234)
	for !g.IsTop(level) {
		pl, pi, slot := g.Parent(level, idx)
		if pl != level+1 {
			t.Fatalf("parent level %d, want %d", pl, level+1)
		}
		if pi != idx/counter.Arity || slot != int(idx%counter.Arity) {
			t.Fatalf("parent (%d,%d) slot %d for child %d", pl, pi, slot, idx)
		}
		level, idx = pl, pi
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Parent on top level did not panic")
		}
	}()
	g.Parent(level, idx)
}

func TestNodeEncodeDecodeGeneral(t *testing.T) {
	n := &Node{Level: 2, Index: 7}
	n.Gen.C[3] = 99
	n.SetHMAC(0xdead)
	got := DecodeNode(2, 7, false, n.Encode())
	if got.Counter(3) != 99 || got.HMAC() != 0xdead {
		t.Fatal("general node round trip failed")
	}
}

func TestNodeEncodeDecodeSplit(t *testing.T) {
	n := &Node{Level: 0, Index: 3, IsSplit: true}
	n.Split.Major = 5
	n.Split.Minor[10] = 31
	n.SetHMAC(0xbeef)
	got := DecodeNode(0, 3, true, n.Encode())
	if !got.IsSplit || got.Split.Major != 5 || got.Split.Minor[10] != 31 || got.HMAC() != 0xbeef {
		t.Fatal("split node round trip failed")
	}
}

func TestNodeFValue(t *testing.T) {
	g := &Node{}
	g.Gen.C[0], g.Gen.C[1] = 10, 20
	if g.FValue() != 30 {
		t.Fatalf("general FValue = %d", g.FValue())
	}
	s := &Node{IsSplit: true}
	s.Split.Major = 2
	s.Split.Minor[0] = 3
	if s.FValue() != 2*64+3 {
		t.Fatalf("split FValue = %d", s.FValue())
	}
}

func TestSplitAtUpperLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("split node above leaf level did not panic")
		}
	}()
	DecodeNode(1, 0, true, counter.Block{})
}

func TestNodeClone(t *testing.T) {
	n := &Node{Level: 1, Index: 2}
	n.Gen.C[0] = 5
	c := n.Clone()
	c.Gen.C[0] = 9
	if n.Gen.C[0] != 5 {
		t.Fatal("clone aliases original")
	}
}

func TestRootSlots(t *testing.T) {
	var r Root
	r.SetCounter(63, 7)
	if r.Counter(63) != 7 {
		t.Fatal("root counter lost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("root slot 64 did not panic")
		}
	}()
	r.Counter(RootSlots)
}

func TestNodeMACSensitivity(t *testing.T) {
	mac, key := crypt.SipMAC{}, crypt.NewKey(1)
	var ctr [56]byte
	base := NodeMAC(mac, key, 0x1000, ctr, 5)
	ctr[0] = 1
	if NodeMAC(mac, key, 0x1000, ctr, 5) == base {
		t.Fatal("counter change did not change MAC")
	}
	ctr[0] = 0
	if NodeMAC(mac, key, 0x1040, ctr, 5) == base {
		t.Fatal("address change did not change MAC")
	}
	if NodeMAC(mac, key, 0x1000, ctr, 6) == base {
		t.Fatal("parent counter change did not change MAC")
	}
	if NodeMAC(mac, key, 0x1000, ctr, 5) != base {
		t.Fatal("identical inputs changed MAC")
	}
}

func TestDataMACSensitivity(t *testing.T) {
	mac, key := crypt.SipMAC{}, crypt.NewKey(2)
	var ct [64]byte
	var msg [DataMACMsgSize]byte
	base := DataMACInto(&msg, mac, key, 64, &ct, 3)
	ct[13] = 1
	if DataMACInto(&msg, mac, key, 64, &ct, 3) == base {
		t.Fatal("ciphertext change did not change MAC")
	}
	ct[13] = 0
	if DataMACInto(&msg, mac, key, 128, &ct, 3) == base {
		t.Fatal("address change did not change MAC")
	}
	if DataMACInto(&msg, mac, key, 64, &ct, 4) == base {
		t.Fatal("counter change did not change MAC")
	}
	// Rewriting only the counter field must equal a full repack.
	PutDataMACMsg(&msg, 64, &ct, 3)
	SetDataMACCounter(&msg, 4)
	if mac.Sum64(key, msg[:]) != DataMACInto(new([DataMACMsgSize]byte), mac, key, 64, &ct, 4) {
		t.Fatal("SetDataMACCounter diverges from a full message pack")
	}
}

func TestGeometrySmallRegion(t *testing.T) {
	// A region smaller than one full leaf still yields a 1-node level.
	g := NewGeometry(64, false, 64)
	if g.Levels != 1 || g.LevelNodes[0] != 1 {
		t.Fatalf("tiny geometry: %d levels, %v nodes", g.Levels, g.LevelNodes)
	}
	if !g.IsTop(0) {
		t.Fatal("single level not top")
	}
}

func TestGeometryBadInputsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewGeometry(0, false, 0) },
		func() { NewGeometry(100, false, 0) },
		func() { NewGeometry(64, false, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry input did not panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkNodeMAC(b *testing.B) {
	mac, key := crypt.SipMAC{}, crypt.NewKey(1)
	var ctr [56]byte
	for i := 0; i < b.N; i++ {
		_ = NodeMAC(mac, key, uint64(i)*64, ctr, uint64(i))
	}
}

func BenchmarkGeometryLeafOfData(b *testing.B) {
	g := NewGeometry(16<<30, true, 16<<30)
	for i := 0; i < b.N; i++ {
		g.LeafOfData(uint64(i) % g.DataBytes / 64 * 64)
	}
}

func TestGeometryPropertyRandomSizes(t *testing.T) {
	// Structural invariants over arbitrary data sizes: contiguous levels,
	// shrink by arity, top fits the root, and address maps invert.
	f := func(kb uint16, split bool) bool {
		dataBytes := (uint64(kb)%4096 + 1) * 64 * 16
		g := NewGeometry(dataBytes, split, dataBytes)
		if g.LevelNodes[g.Levels-1] > RootSlots {
			return false
		}
		for k := 1; k < g.Levels; k++ {
			if g.LevelNodes[k] != (g.LevelNodes[k-1]+counter.Arity-1)/counter.Arity {
				return false
			}
		}
		// Spot-check round trips at the extremes of each level.
		for k := 0; k < g.Levels; k++ {
			for _, idx := range []uint64{0, g.LevelNodes[k] - 1} {
				l2, i2, ok := g.NodeAt(g.NodeAddr(k, idx))
				if !ok || l2 != k || i2 != idx {
					return false
				}
				l3, i3, ok := g.NodeAtOffset(g.Offset(k, idx))
				if !ok || l3 != k || i3 != idx {
					return false
				}
			}
		}
		last := dataBytes - 64
		leaf, slot := g.LeafOfData(last)
		return g.DataAddr(leaf, slot) == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
