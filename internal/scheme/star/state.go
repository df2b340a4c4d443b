// Snapshot support: STAR's state beyond the shared controller structures —
// the parent-counter LSB table, the ADR-cached bitmap lines with their
// exact LRU bookkeeping, and the volatile cache-tree (set-MACs, interior,
// on-chip NV root). The cache-tree is serialized rather than recomputed:
// under an active media-fault seed, recomputing set-MACs from Peeked state
// could diverge from the incrementally maintained values.

package star

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"steins/internal/cache"
	"steins/internal/nvmem"
)

// lsbState is one child node's parent-counter LSB copy.
type lsbState struct {
	Level int
	Index uint64
	LSB   uint16
}

// bitmapEntryState is one cached bitmap line with its LRU bookkeeping.
type bitmapEntryState struct {
	Addr  uint64
	Slot  int
	Stamp uint64
	Dirty bool
	Line  [nvmem.LineSize]byte
}

// policyState is the gob image of the scheme state.
type policyState struct {
	LSBs        []lsbState // sorted by (level, index)
	BitmapStamp uint64
	BitmapStats cache.Stats
	Bitmap      []bitmapEntryState
	SetMACs     []uint64
	Tree        [][]uint64
	Root        uint64
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	st := policyState{
		SetMACs: append([]uint64(nil), p.setMACs...),
		Tree:    make([][]uint64, len(p.tree)),
		Root:    p.root,
	}
	for i, lvl := range p.tree {
		st.Tree[i] = append([]uint64(nil), lvl...)
	}
	for k, v := range p.lsb {
		st.LSBs = append(st.LSBs, lsbState{Level: k.level, Index: k.index, LSB: v})
	}
	sort.Slice(st.LSBs, func(i, j int) bool {
		if st.LSBs[i].Level != st.LSBs[j].Level {
			return st.LSBs[i].Level < st.LSBs[j].Level
		}
		return st.LSBs[i].Index < st.LSBs[j].Index
	})
	bs := p.bitmap.State()
	st.BitmapStamp = bs.Stamp
	st.BitmapStats = bs.Stats
	for _, e := range bs.Entries {
		st.Bitmap = append(st.Bitmap, bitmapEntryState{
			Addr: e.Addr, Slot: e.Slot, Stamp: e.Stamp, Dirty: e.Dirty, Line: *e.Payload,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("star: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadState implements memctrl.PolicyState.
func (p *Policy) LoadState(data []byte) error {
	var st policyState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("star: decode state: %w", err)
	}
	if len(st.SetMACs) != len(p.setMACs) || len(st.Tree) != len(p.tree) {
		return fmt.Errorf("star: state geometry mismatch (%d set-MACs / %d levels, scheme has %d / %d)",
			len(st.SetMACs), len(st.Tree), len(p.setMACs), len(p.tree))
	}
	p.lsb = make(map[nodeKey]uint16, len(st.LSBs))
	for _, e := range st.LSBs {
		p.lsb[nodeKey{level: e.Level, index: e.Index}] = e.LSB
	}
	copy(p.setMACs, st.SetMACs)
	for i := range p.tree {
		if len(st.Tree[i]) != len(p.tree[i]) {
			return fmt.Errorf("star: state tree level %d has %d nodes, scheme has %d", i, len(st.Tree[i]), len(p.tree[i]))
		}
		copy(p.tree[i], st.Tree[i])
	}
	p.root = st.Root
	bs := cache.State[*bitmapLine]{Stamp: st.BitmapStamp, Stats: st.BitmapStats}
	for _, e := range st.Bitmap {
		line := bitmapLine(e.Line)
		bs.Entries = append(bs.Entries, cache.EntryState[*bitmapLine]{
			Addr: e.Addr, Slot: e.Slot, Stamp: e.Stamp, Dirty: e.Dirty, Payload: &line,
		})
	}
	if err := p.bitmap.SetState(bs); err != nil {
		return fmt.Errorf("star: %w", err)
	}
	return nil
}
