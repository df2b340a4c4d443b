// Snapshot support: the device's complete durable and model state as a
// serializable value. Maps are flattened to address-sorted slices so gob
// encoding is deterministic, and the media-fault RNG position rides along —
// the fault stream is entangled with the access sequence, so a resumed run
// must continue drawing from the exact point the original stopped.
//
// The two per-line tables that scale with the footprint (contents and
// wear) are stored as columns rather than slices of structs: gob moves a
// []uint64 or []byte column in one slice operation, but decodes a Line
// ([64]byte) inside a struct element byte by byte through reflection.

package nvmem

import (
	"fmt"

	"steins/internal/rng"
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
	// LineAddrs lists the non-zero lines, sorted by address; LineData holds
	// their contents back to back, LineSize bytes per address.
	LineAddrs []uint64
	LineData  []byte
	// WearAddrs lists the lines with a non-zero write count, sorted by
	// address; WearCounts[i] is the count of WearAddrs[i].
	WearAddrs  []uint64
	WearCounts []uint64
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
	if d.populated > 0 {
		st.LineAddrs = make([]uint64, 0, d.populated)
		st.LineData = make([]byte, 0, d.populated*LineSize)
	}
	d.lines.ForEach(func(idx uint64, l *Line) {
		if *l != (Line{}) {
			st.LineAddrs = append(st.LineAddrs, idx*LineSize)
			st.LineData = append(st.LineData, l[:]...)
		}
	})
	d.wear.ForEach(func(idx uint64, n *uint64) {
		if *n != 0 {
			st.WearAddrs = append(st.WearAddrs, idx*LineSize)
			st.WearCounts = append(st.WearCounts, *n)
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

// check reports whether the state's columns are consistent: LineData holds
// exactly LineSize bytes per line address, and every value column is as
// long as its address column.
func (st *State) check() error {
	if len(st.LineData) != len(st.LineAddrs)*LineSize {
		return fmt.Errorf("nvmem: state has %d line addresses but %d data bytes, want %d",
			len(st.LineAddrs), len(st.LineData), len(st.LineAddrs)*LineSize)
	}
	if len(st.WearCounts) != len(st.WearAddrs) {
		return fmt.Errorf("nvmem: state has %d wear addresses but %d wear counts",
			len(st.WearAddrs), len(st.WearCounts))
	}
	return nil
}

// Restore overwrites the device's contents, wear, queue, statistics and
// fault-model state from a captured State. The device must have been built
// from the same Config (bank count in particular); the observer callback is
// left as-is. A state whose columns are inconsistent is rejected before the
// device is touched.
func (d *Device) Restore(st State) error {
	if err := st.check(); err != nil {
		return err
	}
	d.lines.Reset()
	d.populated = 0
	for i, addr := range st.LineAddrs {
		l := Line(st.LineData[i*LineSize : (i+1)*LineSize])
		if l != (Line{}) {
			*d.lines.Ptr(addr / LineSize) = l
			d.populated++
		}
	}
	d.wear.Reset()
	for i, addr := range st.WearAddrs {
		*d.wear.Ptr(addr / LineSize) = st.WearCounts[i]
	}
	d.queue = append(d.queue[:0], st.Queue...)
	d.banks = append(d.banks[:0], st.Banks...)
	d.stats = st.Stats
	d.stuck.Reset()
	d.stuckN = 0
	for _, s := range st.Stuck {
		if s.Mask != (Line{}) {
			*d.stuck.Ptr(s.Addr / LineSize) = stuckLine{mask: s.Mask, val: s.Val}
			d.stuckN++
		}
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
