// Snapshot support: the device's complete durable and model state as a
// serializable value. Maps are flattened to address-sorted slices so gob
// encoding is deterministic, and the media-fault RNG position rides along —
// the fault stream is entangled with the access sequence, so a resumed run
// must continue drawing from the exact point the original stopped.
//
// The two per-line tables that scale with the footprint (contents and
// wear) are stored as byte columns rather than slices of structs: the line
// contents as one []byte, every 64-bit column as Words, which hold their
// little-endian bytes. gob moves each column as one length-prefixed byte
// string, and a server checkpoint frames the same bytes raw (see
// State.Columns), so Restore reads every word in place from the bytes a
// file was loaded into.

package nvmem

import (
	"encoding/binary"
	"errors"
	"fmt"

	"steins/internal/arena"
	"steins/internal/rng"
)

// Words is a checkpoint column of 64-bit words: line addresses and wear
// counts here, the data-tag fields in the controller's state. It holds the
// words as little-endian bytes, the form they travel in: one byte string
// to gob, one raw section to a server checkpoint. Raw words make a
// checkpoint larger than varints would (about a third, for a Steins-SC
// server) but load faster: the tag-MAC column is incompressible anyway,
// and a word is read where it lies instead of being decoded into a slice.
// The zero value is an empty column.
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
	// LineAddrs lists the non-zero lines, sorted by address; LineData holds
	// their contents back to back, LineSize bytes per address.
	LineAddrs Words
	LineData  []byte
	// WearAddrs lists the lines with a non-zero write count, sorted by
	// address; WearCounts[i] is the count of WearAddrs[i].
	WearAddrs  Words
	WearCounts Words
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
// state; harnesses re-register theirs after Restore.
func (d *Device) State() State {
	st := State{
		Queue: append([]uint64(nil), d.queue...),
		Banks: append([]uint64(nil), d.banks...),
		Stats: d.stats,
		LastWrite: LastWriteState{
			Valid: d.last.valid, Addr: d.last.addr, Prev: d.last.prev, Next: d.last.next,
		},
	}
	// Arena iteration ascends by address, matching the sorted order the
	// map-backed implementation produced; zero slots equal absent entries.
	if n := d.PopulatedLines(); n > 0 {
		st.LineAddrs = MakeWords(n)
		st.LineData = make([]byte, 0, n*LineSize)
	}
	d.lines.ForEach(func(idx uint64, l *Line) {
		if *l != (Line{}) {
			st.LineAddrs.Append(idx * LineSize)
			st.LineData = append(st.LineData, l[:]...)
		}
	})
	d.wear.ForEach(func(idx uint64, n *uint64) {
		if *n != 0 {
			st.WearAddrs.Append(idx * LineSize)
			st.WearCounts.Append(*n)
		}
	})
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

// StateColumns is the number of per-line tables State.Columns lists.
const StateColumns = 4

// Columns returns the state's per-line tables as raw bytes, in checkpoint
// order: line addresses, line data, wear addresses, wear counts. The
// slices alias the state.
func (st *State) Columns() [StateColumns][]byte {
	return [StateColumns][]byte{st.LineAddrs.Bytes(), st.LineData, st.WearAddrs.Bytes(), st.WearCounts.Bytes()}
}

// SetColumns replaces the state's per-line tables with cols, in Columns
// order, aliasing them. A word column that is not a whole number of words
// is an error.
func (st *State) SetColumns(cols [StateColumns][]byte) error {
	lineAddrs, err1 := WordsFrom(cols[0])
	wearAddrs, err2 := WordsFrom(cols[2])
	wearCounts, err3 := WordsFrom(cols[3])
	if err := errors.Join(err1, err2, err3); err != nil {
		return err
	}
	st.LineAddrs, st.LineData, st.WearAddrs, st.WearCounts = lineAddrs, cols[1], wearAddrs, wearCounts
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
// could have captured from this device: LineData holds exactly LineSize
// bytes per line address, every value column is as long as its address
// column, the bank clocks match the configuration, the stuck overlays and
// the evidence ledger pass AddrCheck against the capacity and hold no
// entry State omits (an empty mask or ledger entry), and a fault model
// that is off carries no stream position. Restore checks the line and
// wear tables entry by entry as it reads them.
func (d *Device) check(st *State) error {
	if len(st.LineData) != st.LineAddrs.Len()*LineSize {
		return fmt.Errorf("nvmem: state has %d line addresses but %d data bytes, want %d",
			st.LineAddrs.Len(), len(st.LineData), st.LineAddrs.Len()*LineSize)
	}
	if st.WearCounts.Len() != st.WearAddrs.Len() {
		return fmt.Errorf("nvmem: state has %d wear addresses but %d wear counts",
			st.WearAddrs.Len(), st.WearCounts.Len())
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

// Restore overwrites the device's contents, wear, queue, statistics and
// fault-model state from a captured State. The device must have been built
// from the same Config (bank count in particular); the observer callback is
// left as-is. The tables are read in place from the state's columns and
// copied into fresh arenas, so the device never aliases st. A state that
// fails check, or whose line or wear table holds an address AddrCheck
// refuses or an entry State omits (a zero line or wear count), is rejected
// before the device is touched, with an error naming the table.
func (d *Device) Restore(st State) error {
	if err := d.check(&st); err != nil {
		return err
	}
	// The loops walk the columns by re-slicing, which lets the compiler
	// drop every bounds check; check has matched the column lengths.
	var lines arena.T[Line]
	chk := AddrCheck{Table: "nvmem: line", Limit: d.cfg.CapacityBytes}
	addrs, data := st.LineAddrs.Bytes(), st.LineData
	for i := 0; len(addrs) >= 8 && len(data) >= LineSize; i++ {
		addr := binary.LittleEndian.Uint64(addrs)
		if !chk.Next(addr) {
			return chk.Err()
		}
		l := Line(data[:LineSize])
		if l == (Line{}) {
			return fmt.Errorf("nvmem: line %d (%#x) is all zero, which State omits", i, addr)
		}
		*lines.Ptr(addr / LineSize) = l
		addrs, data = addrs[8:], data[LineSize:]
	}
	var wear arena.T[uint64]
	chk = AddrCheck{Table: "nvmem: wear", Limit: d.cfg.CapacityBytes}
	addrs, counts := st.WearAddrs.Bytes(), st.WearCounts.Bytes()
	for i := 0; len(addrs) >= 8 && len(counts) >= 8; i++ {
		addr, n := binary.LittleEndian.Uint64(addrs), binary.LittleEndian.Uint64(counts)
		if !chk.Next(addr) {
			return chk.Err()
		}
		if n == 0 {
			return fmt.Errorf("nvmem: wear count %d (%#x) is zero, which State omits", i, addr)
		}
		*wear.Ptr(addr / LineSize) = n
		addrs, counts = addrs[8:], counts[8:]
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
