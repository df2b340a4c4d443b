// Snapshot support: triad's state beyond the shared controller structures
// is the on-chip NV recovery register plus the pend overrides for strict
// nodes written through past their parents' persisted slots. pend is
// flattened sorted by (level, index) so captures are byte-identical.

package triad

import "steins/internal/memctrl"

// State is the scheme's checkpointed state.
type State struct {
	RecoveryRoot uint64
	Pend         []memctrl.NodeCounter
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	return memctrl.EncodePolicyState(&State{RecoveryRoot: p.recoveryRoot, Pend: memctrl.SortedNodeCounters(p.pend)})
}

// LoadState implements memctrl.PolicyState. Only strict-level nodes carry
// a pend override, at most one per node.
func (p *Policy) LoadState(data []byte) error {
	var st State
	if err := memctrl.DecodePolicyState(data, &st); err != nil {
		return err
	}
	if err := p.c.CheckNodeCounters("pend table", st.Pend, p.strict); err != nil {
		return err
	}
	pend, err := memctrl.NodeCounterMap[uint64]("pend table", st.Pend)
	if err != nil {
		return err
	}
	p.recoveryRoot, p.pend = st.RecoveryRoot, pend
	return nil
}
