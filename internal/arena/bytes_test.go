package arena

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// marked returns n blocks of ChunkLen slots of width bytes, slot 0 of
// block k holding k+1.
func marked(n, width int) []byte {
	b := make([]byte, n*ChunkLen*width)
	for k := 0; k < n; k++ {
		b[k*ChunkLen*width] = byte(k + 1)
	}
	return b
}

// table returns the unclaimed table of a literal index list and blocks.
func table(t *testing.T, idx []uint64, blocks []byte) Table {
	t.Helper()
	var chunks []byte
	for _, c := range idx {
		chunks = binary.LittleEndian.AppendUint64(chunks, c)
	}
	tb, err := TableFrom(chunks, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestAdoptRefusesBadTables pins Table.Adopt's checks: blocks that are not
// exactly one block per index, an index repeated or descending, an index
// past the slots, an all-zero block, and non-zero slots past the last
// slot of a partial final chunk are all refused, naming the chunk. So is
// a chunk column that is not whole words (TableFrom).
func TestAdoptRefusesBadTables(t *testing.T) {
	const width = 8
	bl := ChunkLen * width
	partialTail := marked(2, width)
	partialTail[2*bl-width] = 9 // slot 2*ChunkLen-1, past slots = 2*ChunkLen-1
	for _, tc := range []struct {
		name   string
		slots  uint64
		idx    []uint64
		blocks []byte
		want   string
	}{
		{"short block", 4 * ChunkLen, []uint64{0, 1}, marked(2, width)[:2*bl-1], "want 4096-byte blocks"},
		{"extra block", 4 * ChunkLen, []uint64{0}, marked(2, width), "for 1 chunks"},
		{"duplicate chunk", 4 * ChunkLen, []uint64{1, 1}, marked(2, width), "chunk 1 (index 1) does not ascend past 1"},
		{"descending chunks", 4 * ChunkLen, []uint64{2, 1}, marked(2, width), "chunk 1 (index 1) does not ascend past 2"},
		{"chunk past the slots", 4 * ChunkLen, []uint64{0, 4}, marked(2, width), "chunk 1 (index 4) lies past the 2048 slots"},
		{"chunk past every int", 4 * ChunkLen, []uint64{0, 1 << 62}, marked(2, width), "lies past"},
		{"all-zero chunk", 4 * ChunkLen, []uint64{0, 1}, make([]byte, 2*bl), "chunk 0 (index 0) is all zero"},
		{"slot past a partial chunk", 2*ChunkLen - 1, []uint64{0, 1}, partialTail, "chunk 1 (index 1) holds slots past the 1023 slots"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := table(t, tc.idx, tc.blocks).Adopt(width, tc.slots)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Adopt = %v, want an error naming %q", err, tc.want)
			}
			if a.chunks != nil {
				t.Fatal("a refused Adopt built a chunk directory")
			}
		})
	}
	if _, err := table(t, []uint64{0, 1}, marked(2, width)).Adopt(width, 2*ChunkLen-1); err != nil {
		t.Fatalf("a partial final chunk with zero tail slots is refused: %v", err)
	}
	if _, err := TableFrom(make([]byte, 12), nil); err == nil || !strings.Contains(err.Error(), "not a whole number of words") {
		t.Fatalf("TableFrom of a 12-byte chunk column = %v, want a refusal", err)
	}
}

// TestAdoptedChunksKeepOrder pins that adopted chunks are the blocks
// themselves and that Probe, Ptr, ForEach and Table treat them as any
// allocated chunk: slots alias the blocks, a fresh chunk allocated between
// two adopted ones iterates in index order, and Table lists exactly the
// chunks that are not all zero, ascending, in blocks of its own.
func TestAdoptedChunksKeepOrder(t *testing.T) {
	const width = 64
	blocks := marked(3, width)
	a, err := table(t, []uint64{1, 3, 6}, blocks).Adopt(width, 8*ChunkLen)
	if err != nil {
		t.Fatal(err)
	}
	if s := a.Probe(3 * ChunkLen); s == nil || &s[0] != &blocks[ChunkLen*width] || s[0] != 2 {
		t.Fatal("Probe of an adopted chunk's slot does not alias its block")
	}
	if a.Probe(2*ChunkLen) != nil || a.Probe(100*ChunkLen) != nil {
		t.Fatal("Probe of an absent chunk returned a slot")
	}
	p := a.Ptr(6*ChunkLen + 5)
	p[0] = 0xAB
	if blocks[2*ChunkLen*width+5*width] != 0xAB {
		t.Fatal("Ptr into an adopted chunk does not write its block")
	}
	(*[width]byte)(a.Ptr(4 * ChunkLen))[1] = 7 // allocates chunk 4
	a.Ptr(5 * ChunkLen)                        // allocates chunk 5, left zero
	a.Ptr(9 * ChunkLen)[0] = 1                 // grows the directory
	if got := a.Chunks(); got != 6 {
		t.Fatalf("%d chunks allocated, want 6", got)
	}
	var prev uint64
	n := 0
	a.ForEach(func(i uint64, slot []byte) {
		if n > 0 && i <= prev || len(slot) != width {
			t.Fatalf("ForEach visited slot %d (%d bytes) after %d", i, len(slot), prev)
		}
		prev = i
		n++
	})
	if n != 6*ChunkLen {
		t.Fatalf("ForEach visited %d slots, want %d", n, 6*ChunkLen)
	}
	tb := a.Table()
	var got []uint64
	for k := range tb.Len() {
		got = append(got, tb.Chunk(k))
	}
	if want := []uint64{1, 3, 4, 6, 9}; !slices.Equal(got, want) {
		t.Fatalf("Table listed chunks %v, want %v", got, want)
	}
	if b := tb.Columns()[1]; len(b) != 5*a.BlockLen() || &b[0] == &blocks[0] || b[0] != 1 {
		t.Fatal("Table's blocks are not copies of the chunks' blocks")
	}
}

// TestAdoptClaimsOnce pins the one-restore claim: adopting a table claims
// nothing, Claim takes every table it is given or none (a refused claim
// releases what it took), a copy of a table shares its claim, and a table
// a restore claimed is refused by Adopt. Empty tables claim nothing and
// adopt any number of times.
func TestAdoptClaimsOnce(t *testing.T) {
	a, b := table(t, []uint64{0}, marked(1, 8)), table(t, []uint64{2}, marked(1, 8))
	if _, err := a.Adopt(8, 4*ChunkLen); err != nil || a.Adopted() {
		t.Fatalf("Adopt = %v, adopted %v; want a table and no claim", err, a.Adopted())
	}
	if err := Claim(b); err != nil {
		t.Fatal(err)
	}
	if err := Claim(a, b); !errors.Is(err, ErrAdopted) || a.Adopted() {
		t.Fatalf("Claim of a fresh and a claimed table = %v, fresh claimed %v; want ErrAdopted and no claim", err, a.Adopted())
	}
	cp := a
	if err := Claim(a, Table{}, Table{}); err != nil || !cp.Adopted() {
		t.Fatalf("Claim = %v, copy adopted %v", err, cp.Adopted())
	}
	if _, err := cp.Adopt(8, 4*ChunkLen); !errors.Is(err, ErrAdopted) {
		t.Fatalf("Adopt of a claimed table's copy = %v, want ErrAdopted", err)
	}
	if _, err := (Table{}).Adopt(8, 4*ChunkLen); err != nil {
		t.Fatal(err)
	}
}

// TestClaimRaces pins the claim under concurrent restores of copies of
// the same tables: when every restore claims them in one order, exactly
// one wins; in mixed orders at most one does, and a loser leaves no table
// claimed that the winner did not take.
func TestClaimRaces(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		a, b := table(t, []uint64{0}, marked(1, 8)), table(t, []uint64{1}, marked(1, 8))
		var wins atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			ts := []Table{a, b}
			if mixed && i%2 == 1 {
				ts = []Table{b, a}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if Claim(ts...) == nil {
					wins.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := wins.Load(); n > 1 || !mixed && n != 1 || a.Adopted() != (n == 1) || b.Adopted() != (n == 1) {
			t.Fatalf("mixed %v: %d restores won; tables claimed %v, %v", mixed, n, a.Adopted(), b.Adopted())
		}
	}
}

// TestTableGobRoundTrip pins Table's gob encoding: tables of any size
// decode to the same columns, unclaimed and in bytes of their own; an
// empty table decodes as the zero Table; and an encoding cut short, or
// whose chunk column is not whole words, is an error, not a short table.
func TestTableGobRoundTrip(t *testing.T) {
	type holder struct{ T Table }
	for _, tb := range []Table{{}, table(t, []uint64{0}, marked(1, 8)), table(t, []uint64{1, 1 << 62, ^uint64(0)}, marked(3, 1))} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(holder{tb}); err != nil {
			t.Fatal(err)
		}
		var back holder
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		got, want := back.T.Columns(), tb.Columns()
		for j := range want {
			if !bytes.Equal(got[j], want[j]) || len(want[j]) > 0 && &got[j][0] == &want[j][0] {
				t.Fatalf("column %d came back as %v, want a copy of %v", j, got[j], want[j])
			}
		}
		if tb.Len() == 0 && back.T.c != nil || back.T.Adopted() {
			t.Fatalf("round trip of %d chunks gave a claimed or non-zero table", tb.Len())
		}
	}
	var tb Table
	for _, bad := range [][]byte{
		make([]byte, 7), // no length word
		append(binary.LittleEndian.AppendUint64(nil, 9), 1, 2, 3, 4), // chunk column past the data
		append(binary.LittleEndian.AppendUint64(nil, 4), 1, 2, 3, 4), // chunk column not whole words
	} {
		if err := tb.GobDecode(bad); err == nil || tb.Len() != 0 {
			t.Fatalf("encoding %v decoded as %d chunks, err %v; want an error", bad, tb.Len(), err)
		}
	}
}

// TestAdoptedBackingRelease pins the reference count of a Backing: its
// memory is freed once, when the creator is done and every table over it
// is released, by the restore that adopted it (Bytes.Release) or, for a
// table no restore claimed, once the table is garbage. A released table
// reads as empty and refuses to encode; a table on the Go heap releases
// nothing and keeps its slots.
func TestAdoptedBackingRelease(t *testing.T) {
	var freed atomic.Int32
	b := NewBacking(func() { freed.Add(1) })
	mem := marked(2, 8)
	bl := ChunkLen * 8
	claimed, err := b.Table(binary.LittleEndian.AppendUint64(nil, 0), mem[:bl])
	if err != nil {
		t.Fatal(err)
	}
	func() {
		// A table no restore claims holds the backing until it is garbage.
		if _, err := b.Table(binary.LittleEndian.AppendUint64(nil, 1), mem[bl:]); err != nil {
			t.Fatal(err)
		}
	}()
	a, err := claimed.Adopt(8, 4*ChunkLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := Claim(claimed); err != nil {
		t.Fatal(err)
	}
	b.Done()
	if !a.Release() || a.Chunks() != 0 || a.Probe(0) != nil {
		t.Fatal("releasing an adopted table over a backing left it holding chunks")
	}
	if cols := claimed.Columns(); !claimed.Released() || claimed.Len() != 0 || cols[0] != nil || cols[1] != nil {
		t.Fatalf("released table reads as %d chunks", claimed.Len())
	}
	if _, err := claimed.GobEncode(); !errors.Is(err, ErrReleased) {
		t.Fatalf("GobEncode of a released table = %v, want ErrReleased", err)
	}
	if a.Release() {
		t.Fatal("a second Release released again")
	}
	for i := 0; i < 100 && freed.Load() == 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := freed.Load(); n != 1 {
		t.Fatalf("backing freed %d times, want once the unclaimed table is garbage", n)
	}

	heap := table(t, []uint64{0}, marked(1, 8))
	h, err := heap.Adopt(8, 4*ChunkLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := Claim(heap); err != nil {
		t.Fatal(err)
	}
	if h.Release() || h.Probe(0)[0] != 1 || heap.Released() {
		t.Fatal("Release of a table on the Go heap dropped its chunks")
	}
}
