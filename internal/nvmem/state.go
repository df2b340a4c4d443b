// Snapshot support: the device's complete durable and model state as a
// serializable value. Maps are flattened to address-sorted slices so gob
// encoding is deterministic, and the media-fault RNG position rides along —
// the fault stream is entangled with the access sequence, so a resumed run
// must continue drawing from the exact point the original stopped.
//
// The two per-line tables that scale with the footprint (contents and
// wear) travel in the device's own shape: each chunk of the arena that
// holds them (arena.Bytes) is one block of bytes, listed with its chunk
// index. A checkpoint frames each column raw (see State.Columns), so
// Restore adopts the blocks a file was loaded into as the device's chunks
// and copies nothing.

package nvmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"steins/internal/arena"
	"steins/internal/rng"
)

// wearSize is the width of one wear-table slot: a little-endian uint64.
const wearSize = 8

// The block lengths of the two chunk tables: one arena chunk of lines,
// and one of wear counts.
const (
	LineBlockLen = arena.ChunkLen * LineSize
	WearBlockLen = arena.ChunkLen * wearSize
)

// Words is a checkpoint column of 64-bit words: chunk indices here, the
// data-tag fields in the controller's state. It holds the words as
// little-endian bytes, the form they travel in: one raw section of a
// checkpoint. Raw words make a checkpoint
// larger than varints would but load faster: the tag-MAC column is
// incompressible anyway, and a word is read where it lies instead of
// being decoded into a slice. The zero value is an empty column.
type Words struct {
	b []byte
}

// MakeWords returns an empty column with room for n words.
func MakeWords(n int) Words { return Words{b: make([]byte, 0, 8*n)} }

// WordsFrom returns the column whose little-endian bytes are b, aliasing b.
// A length that is not a whole number of words is an error; an empty b is
// the empty column.
func WordsFrom(b []byte) (Words, error) {
	if len(b)%8 != 0 {
		return Words{}, fmt.Errorf("nvmem: word column of %d bytes is not a whole number of words", len(b))
	}
	if len(b) == 0 {
		return Words{}, nil
	}
	return Words{b: b}, nil
}

// Len returns the number of words.
func (w Words) Len() int { return len(w.b) / 8 }

// At returns word i.
func (w Words) At(i int) uint64 { return binary.LittleEndian.Uint64(w.b[8*i : 8*i+8]) }

// Append adds v at the end of the column.
func (w *Words) Append(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Bytes returns the column's little-endian bytes, aliasing it.
func (w Words) Bytes() []byte { return w.b }

// GobEncode implements gob.GobEncoder.
func (w Words) GobEncode() ([]byte, error) { return w.b, nil }

// GobDecode implements gob.GobDecoder. The bytes are copied out of data,
// which gob owns; an empty column decodes as the zero Words.
func (w *Words) GobDecode(data []byte) error {
	out, err := WordsFrom(data)
	if err != nil {
		return err
	}
	if out.b != nil {
		out.b = append([]byte(nil), out.b...)
	}
	*w = out
	return nil
}

// Blocks is a chunk table's blocks back to back, the column a Restore
// adopts as the device's chunks. A Blocks and every copy of it share one
// claim: the first Restore that adopts the blocks takes them, so the
// device's later writes land in these bytes, and every later Restore of
// them is refused, so two devices never share a chunk. The zero value is
// an empty column, which any number of restores may read.
type Blocks struct {
	b     []byte
	taken *atomic.Bool
}

// BlocksFrom returns an unclaimed column whose bytes are b, aliasing b.
func BlocksFrom(b []byte) Blocks {
	if len(b) == 0 {
		return Blocks{}
	}
	return Blocks{b: b, taken: new(atomic.Bool)}
}

// Bytes returns the column's bytes, aliasing it.
func (bl Blocks) Bytes() []byte { return bl.b }

// Adopted reports whether a Restore has taken the blocks.
func (bl Blocks) Adopted() bool { return bl.taken != nil && bl.taken.Load() }

// claim marks the blocks taken; it fails if a Restore took them first.
func (bl Blocks) claim() bool { return bl.taken == nil || bl.taken.CompareAndSwap(false, true) }

// GobEncode implements gob.GobEncoder.
func (bl Blocks) GobEncode() ([]byte, error) { return bl.b, nil }

// GobDecode implements gob.GobDecoder. The bytes are copied out of data,
// which gob owns, into a column of their own.
func (bl *Blocks) GobDecode(data []byte) error {
	*bl = BlocksFrom(append([]byte(nil), data...))
	return nil
}

// StuckState is one line's sticky stuck-at overlay.
type StuckState struct {
	Addr uint64
	Mask Line
	Val  Line
}

// LastWriteState is the tear candidate for the next crash boundary.
type LastWriteState struct {
	Valid bool
	Addr  uint64
	Prev  Line
	Next  Line
}

// EvidenceState is one line's media-fault evidence ledger entry.
type EvidenceState struct {
	Addr          uint64
	Corrected     uint64
	Uncorrectable uint64
	Torn          bool
}

// State is the full serializable device image. The configuration is not
// captured: the restoring side rebuilds the device from the same Config and
// the snapshot header's knobs.
type State struct {
	// LineChunks lists, ascending, the chunks of the line table that are
	// not all zero; LineBlocks holds their blocks back to back,
	// LineBlockLen bytes (arena.ChunkLen lines) each.
	LineChunks Words
	LineBlocks Blocks
	// WearChunks and WearBlocks are the wear table alike: each block holds
	// arena.ChunkLen little-endian write counts, WearBlockLen bytes.
	WearChunks Words
	WearBlocks Blocks
	Queue      []uint64 // pending write completions, FIFO by completion
	Banks      []uint64 // per-bank next-free times
	Stats      Stats
	// FaultRNG is the media-fault stream position; FaultRNGValid
	// distinguishes "model off" from a zero state.
	FaultRNGValid bool
	FaultRNG      [4]uint64
	Stuck         []StuckState // stuck-cell overlays, sorted by address
	LastWrite     LastWriteState
	// Evidence is the per-line media-fault ledger, sorted by address.
	Evidence []EvidenceState
}

// State captures the device. The observer callback is not part of the
// state; harnesses re-register theirs after Restore. The state owns its
// tables: every chunk is copied once, so it never aliases the device.
func (d *Device) State() State {
	st := State{
		Queue: append([]uint64(nil), d.queue...),
		Banks: append([]uint64(nil), d.banks...),
		Stats: d.stats,
		LastWrite: LastWriteState{
			Valid: d.last.valid, Addr: d.last.addr, Prev: d.last.prev, Next: d.last.next,
		},
	}
	st.LineChunks, st.LineBlocks = chunkTable(&d.lines)
	st.WearChunks, st.WearBlocks = chunkTable(&d.wear)
	// Arena iteration ascends by address, matching the sorted order the
	// map-backed implementation produced; zero slots equal absent entries.
	d.stuck.ForEach(func(idx uint64, s *stuckLine) {
		if s.mask != (Line{}) {
			st.Stuck = append(st.Stuck, StuckState{Addr: idx * LineSize, Mask: s.mask, Val: s.val})
		}
	})
	d.evid.ForEach(func(idx uint64, ev *lineEvidence) {
		if *ev != (lineEvidence{}) {
			st.Evidence = append(st.Evidence, EvidenceState{Addr: idx * LineSize,
				Corrected: ev.corrected, Uncorrectable: ev.uncorrectable, Torn: ev.torn})
		}
	})
	if d.frng != nil {
		st.FaultRNGValid = true
		st.FaultRNG = d.frng.State()
	}
	return st
}

// chunkTable copies a's chunks that are not all zero into a checkpoint
// table: their indices and their blocks back to back.
func chunkTable(a *arena.Bytes) (Words, Blocks) {
	n := a.Chunks()
	if n == 0 {
		return Words{}, Blocks{}
	}
	idx := MakeWords(n)
	blocks := make([]byte, 0, n*a.BlockLen())
	a.ForEachChunk(func(c uint64, block []byte) {
		idx.Append(c)
		blocks = append(blocks, block...)
	})
	return idx, BlocksFrom(blocks)
}

// StateColumns is the number of per-line tables State.Columns lists.
const StateColumns = 4

// BlockColumn reports whether State.Columns entry j holds chunk blocks,
// the bytes Restore adopts as the device's memory.
func BlockColumn(j int) bool { return j == 1 || j == 3 }

// Columns returns the state's per-line tables as raw bytes, in checkpoint
// order: line chunk indices, line blocks, wear chunk indices, wear
// blocks. The slices alias the state.
func (st *State) Columns() [StateColumns][]byte {
	return [StateColumns][]byte{st.LineChunks.Bytes(), st.LineBlocks.Bytes(), st.WearChunks.Bytes(), st.WearBlocks.Bytes()}
}

// SetColumns replaces the state's per-line tables with cols, in Columns
// order, aliasing them; the blocks are unclaimed. An index column that is
// not a whole number of words is an error.
func (st *State) SetColumns(cols [StateColumns][]byte) error {
	lineChunks, err1 := WordsFrom(cols[0])
	wearChunks, err2 := WordsFrom(cols[2])
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	st.LineChunks, st.LineBlocks = lineChunks, BlocksFrom(cols[1])
	st.WearChunks, st.WearBlocks = wearChunks, BlocksFrom(cols[3])
	return nil
}

// AddrCheck checks a checkpoint table's addresses one by one as a restore
// reads them: each must be aligned, below Limit and, past the first,
// above the one before, as State writes them. Restores check every
// address before its entry lands in an arena, so a crafted file can
// neither grow a chunk directory past the device nor restore two entries
// to one line. Table names the table in the error.
type AddrCheck struct {
	Table string
	Limit uint64
	n     int
	prev  uint64
	bad   uint64
}

// Next reports whether addr may be the table's next address.
func (c *AddrCheck) Next(addr uint64) bool {
	if addr%LineSize != 0 || addr >= c.Limit || c.n > 0 && addr <= c.prev {
		c.bad = addr
		return false
	}
	c.n++
	c.prev = addr
	return true
}

// Err describes the address Next refused.
func (c *AddrCheck) Err() error {
	addr := c.bad
	switch {
	case addr%LineSize != 0:
		return fmt.Errorf("%s address %d (%#x): %w", c.Table, c.n, addr, ErrUnaligned)
	case addr >= c.Limit:
		return fmt.Errorf("%s address %d (%#x): %w: limit %#x", c.Table, c.n, addr, ErrOutOfRange, c.Limit)
	}
	return fmt.Errorf("%s address %d (%#x) does not ascend past %#x", c.Table, c.n, addr, c.prev)
}

// check reports whether the state's small tables and shape are ones State
// could have captured from this device: the chunk tables are not already
// adopted, the bank clocks match the configuration, the stuck overlays and
// the evidence ledger pass AddrCheck against the capacity and hold no
// entry State omits (an empty mask or ledger entry), and a fault model
// that is off carries no stream position. Restore checks the line and
// wear tables chunk by chunk as it adopts them.
func (d *Device) check(st *State) error {
	if st.LineBlocks.Adopted() || st.WearBlocks.Adopted() {
		return errAdopted
	}
	if len(st.Banks) != len(d.banks) {
		return fmt.Errorf("nvmem: state has %d bank clocks, device has %d banks", len(st.Banks), len(d.banks))
	}
	stuck := AddrCheck{Table: "nvmem: stuck", Limit: d.cfg.CapacityBytes}
	for i, s := range st.Stuck {
		if s.Mask == (Line{}) {
			return fmt.Errorf("nvmem: stuck overlay %d (%#x) has an empty mask", i, s.Addr)
		}
		if !stuck.Next(s.Addr) {
			return stuck.Err()
		}
	}
	evid := AddrCheck{Table: "nvmem: evidence", Limit: d.cfg.CapacityBytes}
	for i, ev := range st.Evidence {
		if ev == (EvidenceState{Addr: ev.Addr}) {
			return fmt.Errorf("nvmem: evidence entry %d (%#x) is empty", i, ev.Addr)
		}
		if !evid.Next(ev.Addr) {
			return evid.Err()
		}
	}
	if !st.FaultRNGValid && st.FaultRNG != ([4]uint64{}) {
		return fmt.Errorf("nvmem: state carries a fault stream position with the fault model off")
	}
	return nil
}

// errAdopted refuses a second Restore of one state's chunk tables.
var errAdopted = errors.New("nvmem: state's chunk tables were already adopted by a restore; a state restores once")

// Restore overwrites the device's contents, wear, queue, statistics and
// fault-model state from a captured State. The device must have been built
// from the same Config (bank count in particular); the observer callback is
// left as-is. The device adopts the state's line and wear blocks as its
// chunks (arena.Adopt) and copies nothing: it owns those bytes from then
// on, and a second Restore of the state, or of a copy of it, is refused.
// A state that fails check, or whose line or wear table holds a chunk
// index that does not ascend or lies past the device, a block of the
// wrong length or an all-zero chunk (State omits those), is rejected
// before the device is touched, with an error naming the table.
func (d *Device) Restore(st State) error {
	if err := d.check(&st); err != nil {
		return err
	}
	slots := d.cfg.CapacityBytes / LineSize
	lines, err := arena.Adopt(LineSize, slots, st.LineChunks.Len(), st.LineChunks.At, st.LineBlocks.Bytes())
	if err != nil {
		return fmt.Errorf("nvmem: line table: %w", err)
	}
	wear, err := arena.Adopt(wearSize, slots, st.WearChunks.Len(), st.WearChunks.At, st.WearBlocks.Bytes())
	if err != nil {
		return fmt.Errorf("nvmem: wear table: %w", err)
	}
	if !st.LineBlocks.claim() || !st.WearBlocks.claim() {
		return errAdopted
	}
	d.lines = lines
	d.wear = wear
	d.queue = append(d.queue[:0], st.Queue...)
	d.banks = append(d.banks[:0], st.Banks...)
	d.stats = st.Stats
	d.stuck.Reset()
	d.stuckN = len(st.Stuck)
	for _, s := range st.Stuck {
		*d.stuck.Ptr(s.Addr / LineSize) = stuckLine{mask: s.Mask, val: s.Val}
	}
	d.evid.Reset()
	d.tornN = 0
	for _, ev := range st.Evidence {
		*d.evid.Ptr(ev.Addr / LineSize) = lineEvidence{
			corrected: ev.Corrected, uncorrectable: ev.Uncorrectable, torn: ev.Torn}
		if ev.Torn {
			d.tornN++
		}
	}
	if st.FaultRNGValid {
		if d.frng == nil {
			d.frng = rng.New(d.cfg.Faults.Seed)
		}
		d.frng.Restore(st.FaultRNG)
	} else {
		d.frng = nil
	}
	d.last = lastWrite{valid: st.LastWrite.Valid, addr: st.LastWrite.Addr,
		prev: st.LastWrite.Prev, next: st.LastWrite.Next}
	return nil
}
