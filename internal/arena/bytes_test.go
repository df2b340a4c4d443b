package arena

import (
	"slices"
	"strings"
	"testing"
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

// at returns the chunk-index function of a literal index list.
func at(idx ...uint64) func(int) uint64 { return func(k int) uint64 { return idx[k] } }

// TestAdoptRefusesBadTables pins Adopt's checks: blocks that are not
// exactly one block per index, an index repeated or descending, an index
// past the slots, an all-zero block, and non-zero slots past the last
// slot of a partial final chunk are all refused, naming the chunk.
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
			a, err := Adopt(width, tc.slots, len(tc.idx), at(tc.idx...), tc.blocks)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Adopt = %v, want an error naming %q", err, tc.want)
			}
			if a.chunks != nil {
				t.Fatal("a refused Adopt built a chunk directory")
			}
		})
	}
	if _, err := Adopt(width, 2*ChunkLen-1, 2, at(0, 1), marked(2, width)); err != nil {
		t.Fatalf("a partial final chunk with zero tail slots is refused: %v", err)
	}
}

// TestAdoptedChunksKeepOrder pins that adopted chunks are the blocks
// themselves and that Probe, Ptr, ForEach and ForEachChunk treat them as
// any allocated chunk: slots alias the blocks, a fresh chunk allocated
// between two adopted ones iterates in index order, and ForEachChunk emits
// exactly the chunks that are not all zero, ascending.
func TestAdoptedChunksKeepOrder(t *testing.T) {
	const width = 64
	blocks := marked(3, width)
	a, err := Adopt(width, 8*ChunkLen, 3, at(1, 3, 6), blocks)
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
	var got []uint64
	a.ForEachChunk(func(c uint64, block []byte) {
		if len(block) != a.BlockLen() {
			t.Fatalf("chunk %d block of %d bytes", c, len(block))
		}
		got = append(got, c)
	})
	if want := []uint64{1, 3, 4, 6, 9}; !slices.Equal(got, want) {
		t.Fatalf("ForEachChunk emitted %v, want %v", got, want)
	}
}
