// Snapshot support: SCUE's only state beyond the shared controller
// structures is the on-chip NV Recovery_root register.

package scue

import "steins/internal/memctrl"

// State is the scheme's checkpointed state.
type State struct {
	RecoveryRoot uint64
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	return memctrl.EncodePolicyState(&State{RecoveryRoot: p.recoveryRoot})
}

// LoadState implements memctrl.PolicyState.
func (p *Policy) LoadState(data []byte) error {
	var st State
	if err := memctrl.DecodePolicyState(data, &st); err != nil {
		return err
	}
	p.recoveryRoot = st.RecoveryRoot
	return nil
}
