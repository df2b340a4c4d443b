// Snapshot support: Steins' state beyond the shared controller structures —
// the per-level LInc registers, the non-volatile parent-counter buffer, and
// the ADR-cached record lines with their exact LRU bookkeeping.

package steins

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"steins/internal/cache"
	"steins/internal/memctrl"
)

// bufState is the exported image of one non-volatile buffer slot.
type bufState struct {
	Level   int
	Index   uint64
	Counter uint64
}

// recordEntryState is one cached record line with its LRU bookkeeping.
type recordEntryState struct {
	Addr  uint64
	Slot  int
	Stamp uint64
	Dirty bool
	Line  [memctrl.RecordEntriesPerLine]uint32
}

// policyState is the gob image of the scheme state.
type policyState struct {
	LInc         []uint64
	Buf          []bufState
	RecordsStamp uint64
	RecordsStats cache.Stats
	Records      []recordEntryState
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	if p.draining {
		return nil, fmt.Errorf("steins: snapshot during a buffer drain (not a retired-op boundary)")
	}
	st := policyState{LInc: append([]uint64(nil), p.linc...)}
	for _, e := range p.buf {
		st.Buf = append(st.Buf, bufState{Level: e.level, Index: e.index, Counter: e.counter})
	}
	rs := p.records.State()
	st.RecordsStamp = rs.Stamp
	st.RecordsStats = rs.Stats
	for _, e := range rs.Entries {
		st.Records = append(st.Records, recordEntryState{
			Addr: e.Addr, Slot: e.Slot, Stamp: e.Stamp, Dirty: e.Dirty, Line: *e.Payload,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("steins: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadState implements memctrl.PolicyState.
func (p *Policy) LoadState(data []byte) error {
	var st policyState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("steins: decode state: %w", err)
	}
	if len(st.LInc) != len(p.linc) {
		return fmt.Errorf("steins: state has %d LInc levels, scheme has %d", len(st.LInc), len(p.linc))
	}
	copy(p.linc, st.LInc)
	p.buf = p.buf[:0]
	for _, e := range st.Buf {
		p.buf = append(p.buf, bufEntry{level: e.Level, index: e.Index, counter: e.Counter})
	}
	rs := cache.State[*recordLine]{Stamp: st.RecordsStamp, Stats: st.RecordsStats}
	for _, e := range st.Records {
		line := recordLine(e.Line)
		rs.Entries = append(rs.Entries, cache.EntryState[*recordLine]{
			Addr: e.Addr, Slot: e.Slot, Stamp: e.Stamp, Dirty: e.Dirty, Payload: &line,
		})
	}
	if err := p.records.SetState(rs); err != nil {
		return fmt.Errorf("steins: %w", err)
	}
	p.draining = false
	return nil
}
