// Snapshot support: the device's complete durable and model state as a
// serializable value. Maps are flattened to address-sorted slices so gob
// encoding is deterministic, and the media-fault RNG position rides along —
// the fault stream is entangled with the access sequence, so a resumed run
// must continue drawing from the exact point the original stopped.
//
// The two per-line tables that scale with the footprint (contents and
// wear) travel in the device's own shape, arena.Table: the chunks of the
// arena that holds them (arena.Bytes), each one block of bytes, listed
// with their chunk indices. A checkpoint frames each table raw, so Restore
// adopts the blocks a file was loaded into as the device's chunks and
// copies nothing.

package nvmem

import (
	"fmt"

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
	// Lines is the line table, in blocks of LineBlockLen bytes
	// (arena.ChunkLen lines); Wear is the wear table, in blocks of
	// arena.ChunkLen little-endian write counts, WearBlockLen bytes.
	Lines arena.Table
	Wear  arena.Table
	Queue []uint64 // pending write completions, FIFO by completion
	Banks []uint64 // per-bank next-free times
	Stats Stats
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
	st.Lines, st.Wear = d.lines.Table(), d.wear.Table()
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

// addrCheck checks a checkpoint table's addresses one by one as a restore
// reads them: each must be aligned, below Limit and, past the first,
// above the one before, as State writes them. Restores check every
// address before its entry lands in an arena, so a crafted file can
// neither grow a chunk directory past the device nor restore two entries
// to one line. Table names the table in the error.
type addrCheck struct {
	Table string
	Limit uint64
	n     int
	prev  uint64
	bad   uint64
}

// Next reports whether addr may be the table's next address.
func (c *addrCheck) Next(addr uint64) bool {
	if addr%LineSize != 0 || addr >= c.Limit || c.n > 0 && addr <= c.prev {
		c.bad = addr
		return false
	}
	c.n++
	c.prev = addr
	return true
}

// Err describes the address Next refused.
func (c *addrCheck) Err() error {
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
// could have captured from this device: the bank clocks match the configuration, the stuck overlays and
// the evidence ledger pass addrCheck against the capacity and hold no
// entry State omits (an empty mask or ledger entry), and a fault model
// that is off carries no stream position. Restore checks the line and
// wear tables chunk by chunk as it adopts them.
func (d *Device) check(st *State) error {
	if len(st.Banks) != len(d.banks) {
		return fmt.Errorf("nvmem: state has %d bank clocks, device has %d banks", len(st.Banks), len(d.banks))
	}
	stuck := addrCheck{Table: "nvmem: stuck", Limit: d.cfg.CapacityBytes}
	for i, s := range st.Stuck {
		if s.Mask == (Line{}) {
			return fmt.Errorf("nvmem: stuck overlay %d (%#x) has an empty mask", i, s.Addr)
		}
		if !stuck.Next(s.Addr) {
			return stuck.Err()
		}
	}
	evid := addrCheck{Table: "nvmem: evidence", Limit: d.cfg.CapacityBytes}
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
// left as-is. The device adopts the state's line and wear blocks as its
// chunks (arena.Table.Adopt) and copies nothing: it owns those bytes from
// then on, and a second Restore of the state, or of a copy of it, is
// refused. A state that fails check, or whose line or wear table holds a
// chunk index that does not ascend or lies past the device, a block of the
// wrong length or an all-zero chunk (State omits those), is rejected
// before the device is touched, with an error naming the table.
func (d *Device) Restore(st State) error {
	install, err := d.Adopt(st)
	if err != nil {
		return err
	}
	if err := arena.Claim(st.Lines, st.Wear); err != nil {
		return fmt.Errorf("nvmem: %w", err)
	}
	install()
	return nil
}

// Adopt makes every check Restore makes and adopts the state's line and
// wear blocks, but claims nothing and leaves the device as it is: install
// overwrites the device with the state. A caller that restores tables of
// its own beside the device's claims them all with the state's Lines and
// Wear (arena.Claim) and calls install only once the claim succeeded, as
// Restore does for the device alone.
func (d *Device) Adopt(st State) (install func(), err error) {
	if err := d.check(&st); err != nil {
		return nil, err
	}
	slots := d.cfg.CapacityBytes / LineSize
	lines, err := st.Lines.Adopt(LineSize, slots)
	if err != nil {
		return nil, fmt.Errorf("nvmem: line table: %w", err)
	}
	wear, err := st.Wear.Adopt(wearSize, slots)
	if err != nil {
		return nil, fmt.Errorf("nvmem: wear table: %w", err)
	}
	return func() {
		d.lines = lines
		d.wear = wear
		d.queue = append(d.qbuf[:0], st.Queue...)
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
	}, nil
}
