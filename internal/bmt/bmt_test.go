package bmt

import (
	"encoding/binary"
	"strings"
	"testing"

	"steins/internal/counter"
	"steins/internal/crypt"
	"steins/internal/rng"
)

var (
	testKey = crypt.NewKey(1)
	testMAC = crypt.SipMAC{}
)

// newTree builds a tree over n zeroed counter blocks.
func newTree(n int) *Tree {
	leaves := make([]uint64, n)
	for i := range leaves {
		leaves[i] = leafHash(uint64(i), counter.Block{})
	}
	return New(leaves, testKey, testMAC)
}

// leafHash is LeafHash of a counter block under the test key.
func leafHash(i uint64, blk counter.Block) uint64 {
	var msg [72]byte
	return LeafHash(testKey, testMAC, &msg, i, (*[64]byte)(&blk))
}

// setBlock stores a counter block as leaf i.
func setBlock(tr *Tree, i int, blk counter.Block) uint64 {
	return tr.Set(i, leafHash(uint64(i), blk))
}

// refTree is the cache-tree as ASIT kept it inline before this package
// held the one tree: the reference Tree must match hash for hash and
// count for count.
type refTree struct {
	tree [][]uint64
	root uint64
}

const treeArity = 8

func newRefTree(leaves []uint64) *refTree {
	p := &refTree{}
	n := len(leaves)
	for {
		p.tree = append(p.tree, make([]uint64, n))
		if n <= treeArity {
			break
		}
		n = (n + treeArity - 1) / treeArity
	}
	copy(p.tree[0], leaves)
	p.root, _ = p.rebuildTree()
	return p
}

func (p *refTree) interiorHash(level int, group uint64, children []uint64) uint64 {
	msg := make([]byte, 0, 8*(len(children)+2))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(level)<<32|group)
	msg = append(msg, b[:]...)
	for _, h := range children {
		binary.LittleEndian.PutUint64(b[:], h)
		msg = append(msg, b[:]...)
	}
	return testMAC.Sum64(testKey, msg)
}

func (p *refTree) updatePath(slot int, leaf uint64) uint64 {
	p.tree[0][slot] = leaf
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

func (p *refTree) groupHash(level int, idx uint64) uint64 {
	lo := idx * treeArity
	hi := min(lo+treeArity, uint64(len(p.tree[level-1])))
	return p.interiorHash(level, idx, p.tree[level-1][lo:hi])
}

func (p *refTree) rebuildTree() (root uint64, hashes uint64) {
	for l := 1; l < len(p.tree); l++ {
		for idx := range p.tree[l] {
			p.tree[l][idx] = p.groupHash(l, uint64(idx))
			hashes++
		}
	}
	return p.interiorHash(len(p.tree), 0, p.tree[len(p.tree)-1]), hashes + 1
}

// TestTreeMatchesReference drives seeded random Set sequences over every
// leaf count from 1 to 600, across the 8/64/512 width boundaries: every
// update's root and hash count equal the reference's, and Rebuild's root
// equals the incremental one at the reference's rebuild count.
func TestTreeMatchesReference(t *testing.T) {
	for n := 1; n <= 600; n++ {
		r := rng.New(uint64(n))
		leaves := make([]uint64, n)
		for i := range leaves {
			leaves[i] = r.Uint64()
		}
		ref := newRefTree(leaves)
		tr := New(leaves, testKey, testMAC)
		if tr.Root() != ref.root {
			t.Fatalf("n=%d: built root %#x, reference %#x", n, tr.Root(), ref.root)
		}
		if len(tr.Levels()) != len(ref.tree) {
			t.Fatalf("n=%d: %d levels, reference %d", n, len(tr.Levels()), len(ref.tree))
		}
		for k := 0; k < 8; k++ {
			i, h := r.Intn(n), r.Uint64()
			got, want := tr.Set(i, h), ref.updatePath(i, h)
			if got != want {
				t.Fatalf("n=%d: Set(%d) counted %d hashes, reference %d", n, i, got, want)
			}
			if tr.Root() != ref.root {
				t.Fatalf("n=%d: root after Set(%d) %#x, reference %#x", n, i, tr.Root(), ref.root)
			}
		}
		incremental := tr.Root()
		root, hashes := tr.Rebuild()
		wantRoot, wantHashes := ref.rebuildTree()
		if root != incremental || root != wantRoot {
			t.Fatalf("n=%d: rebuilt root %#x, incremental %#x, reference %#x", n, root, incremental, wantRoot)
		}
		if hashes != wantHashes {
			t.Fatalf("n=%d: Rebuild counted %d hashes, reference %d", n, hashes, wantHashes)
		}
	}
}

func TestSetAllocatesNothing(t *testing.T) {
	tr := newTree(600)
	if a := testing.AllocsPerRun(100, func() { tr.Set(599, 7); tr.Root() }); a != 0 {
		t.Fatalf("Set and Root allocate %.0f times per update, want 0", a)
	}
}

func TestRestoreChecksShape(t *testing.T) {
	tr := newTree(100) // levels of 100, 13 and 2 nodes
	for _, tc := range []struct {
		levels [][]uint64
		want   string
	}{
		{[][]uint64{make([]uint64, 100), make([]uint64, 13)}, "state has 2 tree levels, scheme has 3"},
		{[][]uint64{make([]uint64, 99), make([]uint64, 13), make([]uint64, 2)}, "state tree level 0 has 99 nodes, scheme has 100"},
		{[][]uint64{make([]uint64, 100), make([]uint64, 13), make([]uint64, 3)}, "state tree level 2 has 3 nodes, scheme has 2"},
	} {
		if err := tr.Restore(tc.levels); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Restore = %v, want %q", err, tc.want)
		}
	}
	other := newTree(100)
	setBlock(other, 42, counter.Block{9})
	if err := tr.Restore(other.Levels()); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != other.Root() {
		t.Fatal("restored tree has another root")
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := newTree(64)
	before := tr.Root()
	var blk counter.Block
	blk[3] = 7
	setBlock(tr, 0, blk)
	if tr.Root() == before {
		t.Fatal("root unchanged after update")
	}
}

func TestUpdateCostScalesWithHeight(t *testing.T) {
	// The motivating contrast (§II-C): BMT update cost is height x hash
	// latency, sequential. SIT's lazy update touches one node (+ parent).
	small, large := newTree(8), newTree(8*8*8*8)
	var blk counter.Block
	blk[0] = 1
	cs := 40 * setBlock(small, 0, blk)
	cl := 40 * setBlock(large, 0, blk)
	if cl <= cs {
		t.Fatalf("deep tree update (%d cycles) not costlier than shallow (%d)", cl, cs)
	}
	if want := uint64(len(large.Levels())+1) * 40; cl != want {
		t.Fatalf("update cost %d, want (levels+root)*hash = %d", cl, want)
	}
	// The ablation's tree: 2^15 counter blocks, 240 cycles per update.
	if got := 40 * setBlock(newTree(1<<15), 0, blk); got != 240 {
		t.Fatalf("2^15-block update cost %d cycles, want 240", got)
	}
}

func TestRebuildFromLeaves(t *testing.T) {
	tr := newTree(128)
	var blk counter.Block
	for i := 0; i < 128; i += 11 {
		blk[0] = byte(i)
		setBlock(tr, i, blk)
	}
	trusted := tr.Root()
	// Simulate loss of interior hashes: rebuild and compare.
	for _, level := range tr.Levels()[1:] {
		clear(level)
	}
	root, hashes := tr.Rebuild()
	if root != trusted {
		t.Fatal("rebuild changed the root")
	}
	if hashes != 16+2+1 {
		t.Fatalf("rebuild hashed %d nodes, want the 18 interior ones and the root", hashes)
	}
}

func TestRebuildDetectsTamperedLeafViaRoot(t *testing.T) {
	tr := newTree(64)
	var blk counter.Block
	blk[0] = 9
	setBlock(tr, 3, blk)
	trusted := tr.Root()
	// Attacker modifies the stored block, then the system rebuilds.
	blk[0] = 10
	tr.Leaves()[3] = leafHash(3, blk)
	if root, _ := tr.Rebuild(); root == trusted {
		t.Fatal("tampered rebuild produced the trusted root")
	}
}

func TestNonPowerOfEightSizes(t *testing.T) {
	for _, n := range []int{1, 7, 9, 63, 65, 100} {
		tr := newTree(n)
		var blk counter.Block
		blk[1] = 5
		setBlock(tr, n-1, blk)
		incremental := tr.Root()
		if root, _ := tr.Rebuild(); root != incremental {
			t.Fatalf("n=%d: rebuilt root differs from the incremental one", n)
		}
	}
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New over no leaves did not panic")
		}
	}()
	New(nil, testKey, testMAC)
}

func BenchmarkUpdate(b *testing.B) {
	tr := newTree(1 << 15)
	var blk counter.Block
	for i := 0; i < b.N; i++ {
		blk[0] = byte(i)
		setBlock(tr, i&(1<<15-1), blk)
	}
}
