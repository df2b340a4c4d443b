// Snapshot support: pipesit's state beyond the shared controller
// structures is the on-chip NV recovery register plus the coalescing
// update pipeline, serialized in FIFO order so a resumed run retires
// updates in the identical sequence.

package pipesit

import "steins/internal/memctrl"

// State is the scheme's checkpointed state.
type State struct {
	RecoveryRoot uint64
	Pipe         []memctrl.NodeCounter
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	return memctrl.EncodePolicyState(&State{RecoveryRoot: p.recoveryRoot, Pipe: p.pipe})
}

// LoadState implements memctrl.PolicyState. Every pipelined update names a
// child below the top level (its parent is a tree node). The pipe's length
// is not checked: EvictDirty keeps an update whose retirement failed, so a
// run whose parent fetches fail holds more than its depth.
func (p *Policy) LoadState(data []byte) error {
	var st State
	if err := memctrl.DecodePolicyState(data, &st); err != nil {
		return err
	}
	if err := p.c.CheckNodeCounters("update pipe", st.Pipe, p.c.Layout().Geo.Levels-1); err != nil {
		return err
	}
	p.recoveryRoot, p.pipe = st.RecoveryRoot, st.Pipe
	return nil
}
