package arena

import (
	"encoding/binary"
	"fmt"
)

// Bytes is T's layout for slots that travel as bytes: a chunked sparse
// array of fixed-width byte slots keyed by uint64 index, each chunk one
// block of ChunkLen slots back to back. Because a chunk is a plain block
// of bytes, a table can adopt blocks read from a file as its chunks
// without copying them (Adopt), and hand each chunk to an emitter whole
// (ForEachChunk). Callers view a slot through Go's slice-to-array-pointer
// conversion, for instance (*[64]byte)(a.Ptr(i)).
//
// As in T, an all-zero slot equals an untouched one. Build tables with
// NewBytes or Adopt; the zero value has no slot width.
type Bytes struct {
	width  uint64
	chunks [][]byte
}

// NewBytes returns an empty table of width-byte slots.
func NewBytes(width int) Bytes {
	if width <= 0 {
		panic("arena: slot width must be positive")
	}
	return Bytes{width: uint64(width)}
}

// BlockLen returns the length of one chunk's block: ChunkLen slots.
func (a *Bytes) BlockLen() int { return int(a.width) * ChunkLen }

// Probe returns slot i if its chunk exists, else nil. It never allocates;
// use it on read paths.
func (a *Bytes) Probe(i uint64) []byte {
	c := i >> chunkShift
	if c >= uint64(len(a.chunks)) || a.chunks[c] == nil {
		return nil
	}
	o := (i & (ChunkLen - 1)) * a.width
	return a.chunks[c][o : o+a.width : o+a.width]
}

// Ptr returns slot i, allocating its chunk (and growing the chunk
// directory) as needed. Returned slots stay valid for the life of the
// table: chunks are never moved or freed.
func (a *Bytes) Ptr(i uint64) []byte {
	c := i >> chunkShift
	if c >= uint64(len(a.chunks)) {
		a.chunks = append(a.chunks, make([][]byte, c+1-uint64(len(a.chunks)))...)
	}
	if a.chunks[c] == nil {
		a.chunks[c] = make([]byte, a.width*ChunkLen)
	}
	o := (i & (ChunkLen - 1)) * a.width
	return a.chunks[c][o : o+a.width : o+a.width]
}

// Chunks returns the number of allocated chunks.
func (a *Bytes) Chunks() int {
	n := 0
	for _, chunk := range a.chunks {
		if chunk != nil {
			n++
		}
	}
	return n
}

// ForEach visits every slot of every allocated chunk in strictly
// ascending index order, zero slots included. The slots passed to fn are
// the live ones; fn may write them.
func (a *Bytes) ForEach(fn func(i uint64, slot []byte)) {
	for c, chunk := range a.chunks {
		for i := uint64(c) << chunkShift; len(chunk) > 0; i++ {
			fn(i, chunk[:a.width:a.width])
			chunk = chunk[a.width:]
		}
	}
}

// ForEachChunk visits every allocated chunk that is not all zero, in
// ascending chunk order, passing its index and its live block. These are
// exactly the chunks Adopt accepts back.
func (a *Bytes) ForEachChunk(fn func(c uint64, block []byte)) {
	for c, chunk := range a.chunks {
		if chunk != nil && !allZero(chunk) {
			fn(uint64(c), chunk)
		}
	}
}

// Adopt returns a table of width-byte slots, over the indices below
// slots, whose chunks are the blocks of blocks: block k, the k-th
// BlockLen bytes, becomes chunk chunk(k) for every k < n. Chunk indices
// must ascend (so none repeats) and hold only indices below slots, blocks
// must hold exactly n blocks, and no block may be all zero, since
// ForEachChunk emits none. The table copies nothing: it takes ownership of
// blocks, and its slots are the bytes of blocks from then on. Every check
// runs before anything is allocated, so a refused table allocates nothing.
func Adopt(width int, slots uint64, n int, chunk func(k int) uint64, blocks []byte) (Bytes, error) {
	a := NewBytes(width)
	bl := a.BlockLen()
	if n < 0 || len(blocks) != n*bl {
		return Bytes{}, fmt.Errorf("%d bytes of blocks for %d chunks, want %d-byte blocks", len(blocks), n, bl)
	}
	last := uint64(0)
	for k := 0; k < n; k++ {
		c := chunk(k)
		switch {
		case k > 0 && c <= last:
			return Bytes{}, fmt.Errorf("chunk %d (index %d) does not ascend past %d", k, c, last)
		case c >= (slots+ChunkLen-1)>>chunkShift:
			return Bytes{}, fmt.Errorf("chunk %d (index %d) lies past the %d slots", k, c, slots)
		}
		block := blocks[k*bl : (k+1)*bl]
		if allZero(block) {
			return Bytes{}, fmt.Errorf("chunk %d (index %d) is all zero, which a table omits", k, c)
		}
		if end := (c + 1) << chunkShift; end > slots && !allZero(block[bl-int((end-slots)*a.width):]) {
			return Bytes{}, fmt.Errorf("chunk %d (index %d) holds slots past the %d slots", k, c, slots)
		}
		last = c
	}
	if n == 0 {
		return a, nil
	}
	a.chunks = make([][]byte, last+1)
	for k := 0; k < n; k++ {
		a.chunks[chunk(k)] = blocks[k*bl : (k+1)*bl : (k+1)*bl]
	}
	return a, nil
}

// allZero reports whether b holds only zero bytes. It stops at the first
// word that is not zero, so a populated block costs little.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
