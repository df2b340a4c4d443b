package arena

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Bytes is T's layout for slots that travel as bytes: a chunked sparse
// array of fixed-width byte slots keyed by uint64 index, each chunk one
// block of ChunkLen slots back to back. Because a chunk is a plain block
// of bytes, a table travels in a checkpoint as its chunks' blocks
// (Table), and a restore adopts blocks read from a file as its chunks
// without copying them (Table.Adopt). Callers view a slot through Go's slice-to-array-pointer
// conversion, for instance (*[64]byte)(a.Ptr(i)).
//
// As in T, an all-zero slot equals an untouched one. Build tables with
// NewBytes or Table.Adopt; the zero value has no slot width.
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
// use it on read paths. The slot's capacity runs on to the end of its
// chunk (a full slice expression would put Probe and its callers past the
// inliner's budget), so never append to it.
func (a *Bytes) Probe(i uint64) []byte {
	c := i >> chunkShift
	if c >= uint64(len(a.chunks)) || a.chunks[c] == nil {
		return nil
	}
	o := (i & (ChunkLen - 1)) * a.width
	return a.chunks[c][o : o+a.width]
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

// Table is a Bytes table's checkpoint form: the indices of its chunks
// that are not all zero, ascending, as little-endian words, and those
// chunks' blocks back to back. A checkpoint frames the two as raw columns
// (Columns), indices then blocks: raw words make a checkpoint larger than
// varints would but load faster, since an index is read where it lies.
//
// A restore adopts a table's blocks as a Bytes table's chunks (Adopt,
// then Claim) and copies nothing. A Table and every copy of it share one
// claim: the first restore that claims the blocks takes them, the adopted
// table's later writes land in these bytes, and every later restore of
// them is refused, so two tables never share a chunk. The zero value is
// an empty table, which any number of restores may adopt.
type Table struct {
	chunks, blocks []byte
	taken          *atomic.Bool
}

// Table captures a's chunks that are not all zero. It copies each block
// once, so the table never aliases a.
func (a *Bytes) Table() Table {
	var t Table
	n := a.Chunks()
	if n == 0 {
		return t
	}
	t.chunks = make([]byte, 0, 8*n)
	t.blocks = make([]byte, 0, n*a.BlockLen())
	for c, chunk := range a.chunks {
		if chunk != nil && !allZero(chunk) {
			t.chunks = binary.LittleEndian.AppendUint64(t.chunks, uint64(c))
			t.blocks = append(t.blocks, chunk...)
		}
	}
	t.taken = new(atomic.Bool)
	return t
}

// TableFrom returns the unclaimed table whose columns (see Columns) are
// chunks and blocks, aliasing both. A chunk column that is not a whole
// number of words is an error.
func TableFrom(chunks, blocks []byte) (Table, error) {
	if len(chunks)%8 != 0 {
		return Table{}, fmt.Errorf("arena: chunk column of %d bytes is not a whole number of words", len(chunks))
	}
	if len(chunks) == 0 && len(blocks) == 0 {
		return Table{}, nil
	}
	return Table{chunks: chunks, blocks: blocks, taken: new(atomic.Bool)}, nil
}

// Columns returns the table's two checkpoint columns, the chunk indices
// as little-endian words and then the blocks, aliasing the table.
func (t Table) Columns() [2][]byte { return [2][]byte{t.chunks, t.blocks} }

// Len returns the number of chunks the table lists.
func (t Table) Len() int { return len(t.chunks) / 8 }

// Chunk returns the index of the table's k-th chunk.
func (t Table) Chunk(k int) uint64 { return binary.LittleEndian.Uint64(t.chunks[8*k:]) }

// Adopted reports whether a restore has claimed the table's blocks.
func (t Table) Adopted() bool { return t.taken != nil && t.taken.Load() }

// ErrAdopted refuses a restore of a table whose blocks a restore claimed.
var ErrAdopted = errors.New("arena: chunk table already adopted by a restore; a state restores once")

// Adopt returns a Bytes table of width-byte slots, over the indices below
// slots, whose chunks are t's blocks: block k, the k-th BlockLen bytes,
// becomes chunk Chunk(k). Chunk indices must ascend (so none repeats) and
// hold only indices below slots, the blocks must be exactly one block per
// index, and no block may be all zero, since Table lists none. The result
// copies nothing: its slots are t's bytes. Every check runs before anything
// is allocated, so a refused table allocates nothing. A table a restore
// claimed is refused (ErrAdopted); Adopt itself claims nothing, so a
// restore claims the blocks (Claim) once all its checks have passed, and
// only then uses the result.
func (t Table) Adopt(width int, slots uint64) (Bytes, error) {
	if t.Adopted() {
		return Bytes{}, ErrAdopted
	}
	a := NewBytes(width)
	bl, n := a.BlockLen(), t.Len()
	if len(t.blocks) != n*bl {
		return Bytes{}, fmt.Errorf("%d bytes of blocks for %d chunks, want %d-byte blocks", len(t.blocks), n, bl)
	}
	last := uint64(0)
	for k := 0; k < n; k++ {
		c := t.Chunk(k)
		switch {
		case k > 0 && c <= last:
			return Bytes{}, fmt.Errorf("chunk %d (index %d) does not ascend past %d", k, c, last)
		case c >= (slots+ChunkLen-1)>>chunkShift:
			return Bytes{}, fmt.Errorf("chunk %d (index %d) lies past the %d slots", k, c, slots)
		}
		block := t.blocks[k*bl : (k+1)*bl]
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
		a.chunks[t.Chunk(k)] = t.blocks[k*bl : (k+1)*bl : (k+1)*bl]
	}
	return a, nil
}

// Claim takes the blocks of every table in ts for one restore, all or
// none: if a restore claimed any of them first, Claim releases the ones it
// took and returns ErrAdopted, so a refused restore leaves every table as
// it found it.
func Claim(ts ...Table) error {
	for i, t := range ts {
		if t.taken != nil && !t.taken.CompareAndSwap(false, true) {
			for _, u := range ts[:i] {
				if u.taken != nil {
					u.taken.Store(false)
				}
			}
			return ErrAdopted
		}
	}
	return nil
}

// GobEncode implements gob.GobEncoder: the chunk column's length as a
// little-endian word, then both columns.
func (t Table) GobEncode() ([]byte, error) {
	if len(t.chunks) == 0 && len(t.blocks) == 0 {
		return nil, nil
	}
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(t.chunks)))
	return append(append(out, t.chunks...), t.blocks...), nil
}

// GobDecode implements gob.GobDecoder. The columns are copied out of data,
// which gob owns, into an unclaimed table of their own.
func (t *Table) GobDecode(data []byte) error {
	if len(data) == 0 {
		*t = Table{}
		return nil
	}
	if len(data) < 8 || binary.LittleEndian.Uint64(data) > uint64(len(data)-8) {
		return fmt.Errorf("arena: table encoding of %d bytes is cut short", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = append([]byte(nil), data[8:]...)
	out, err := TableFrom(data[:n:n], data[n:])
	if err != nil {
		return err
	}
	*t = out
	return nil
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
