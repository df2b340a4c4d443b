// Snapshot support: STAR's state beyond the shared controller structures —
// the parent-counter LSB table, the ADR-cached bitmap lines with their
// exact LRU bookkeeping, and the volatile cache-tree (set-MACs, interior,
// on-chip NV root). The cache-tree is serialized rather than recomputed:
// under an active media-fault seed, recomputing set-MACs from Peeked state
// could diverge from the incrementally maintained values.

package star

import (
	"fmt"

	"steins/internal/cache"
	"steins/internal/memctrl"
)

// State is the scheme's checkpointed state.
type State struct {
	LSBs    []memctrl.NodeCounter // sorted by (level, index)
	Bitmap  cache.State[*bitmapLine]
	SetMACs []uint64
	Tree    [][]uint64
	Root    uint64
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	return memctrl.EncodePolicyState(&State{
		LSBs:    memctrl.SortedNodeCounters(p.lsb),
		Bitmap:  p.bitmap.State(),
		SetMACs: p.tree.Leaves(),
		Tree:    p.tree.Levels(),
		Root:    p.root,
	})
}

// LoadState implements memctrl.PolicyState. Every LSB copy belongs to a
// tree node, at most one per node, and fits its 16 bits; every cached bitmap
// line lies in the bitmap region.
func (p *Policy) LoadState(data []byte) error {
	var st State
	if err := memctrl.DecodePolicyState(data, &st); err != nil {
		return err
	}
	if len(st.SetMACs) != len(p.tree.Leaves()) {
		return fmt.Errorf("state has %d set-MACs, scheme has %d", len(st.SetMACs), len(p.tree.Leaves()))
	}
	lay := p.c.Layout()
	if err := p.c.CheckNodeCounters("LSB table", st.LSBs, lay.Geo.Levels); err != nil {
		return err
	}
	lsb, err := memctrl.NodeCounterMap[uint16]("LSB table", st.LSBs)
	if err != nil {
		return err
	}
	if err := memctrl.CheckCachedLines("bitmap", st.Bitmap, lay.BitmapBase, lay.BitmapBytes); err != nil {
		return err
	}
	if err := p.bitmap.SetState(st.Bitmap); err != nil {
		return fmt.Errorf("bitmap lines: %w", err)
	}
	// The leaves are the set-MACs; Tree[0] only has its width checked
	// (checkpoints written before the set-MACs were the tree's leaves
	// carry zeros there).
	if err := p.tree.Restore(st.Tree); err != nil {
		return err
	}
	copy(p.tree.Leaves(), st.SetMACs)
	p.lsb, p.root = lsb, st.Root
	return nil
}
