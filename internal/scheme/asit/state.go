// Snapshot support: ASIT's state beyond the shared controller structures is
// the volatile cache-tree over shadow slots plus its on-chip NV root. The
// tree is serialized rather than recomputed from the shadow table: under an
// active media-fault seed, Peeked shadow contents could diverge from the
// incrementally maintained hashes.

package asit

import "steins/internal/memctrl"

// State is the scheme's checkpointed state.
type State struct {
	Tree [][]uint64
	Root uint64
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	return memctrl.EncodePolicyState(&State{Tree: p.tree.Levels(), Root: p.root})
}

// LoadState implements memctrl.PolicyState.
func (p *Policy) LoadState(data []byte) error {
	var st State
	if err := memctrl.DecodePolicyState(data, &st); err != nil {
		return err
	}
	if err := p.tree.Restore(st.Tree); err != nil {
		return err
	}
	p.root = st.Root
	return nil
}
