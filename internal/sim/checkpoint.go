// Checkpoint support: the serializable state of the engine. A run
// checkpointed at any epoch barrier and resumed in a fresh process produces
// byte-identical metrics to the uninterrupted run.

package sim

import (
	"fmt"

	"steins/internal/memctrl"
	"steins/internal/trace"
)

// Driven returns the number of source ops driven so far, warm-up included.
func (e *Sharded) Driven() uint64 { return e.driven }

// ShardedState is the serializable image of a Sharded engine (minus the
// trace position, which the snapshot carries separately): the drive
// bookkeeping, the splitter's routing state, and every channel controller.
type ShardedState struct {
	Driven      uint64
	WarmupDone  bool
	HasSplitter bool
	Splitter    trace.SplitterState
	Ctrls       []*memctrl.ControllerState
}

// State captures the engine at an epoch barrier (every routed op retired).
func (e *Sharded) State() (*ShardedState, error) {
	st := &ShardedState{Driven: e.driven, WarmupDone: e.warmupDone}
	if e.sp != nil {
		st.HasSplitter = true
		st.Splitter = e.sp.State()
	}
	for k, c := range e.Controllers() {
		cs, err := c.State()
		if err != nil {
			return nil, fmt.Errorf("sim: sharded channel %d: %w", k, err)
		}
		st.Ctrls = append(st.Ctrls, cs)
	}
	return st, nil
}

// Restore rebuilds the engine from a captured state; it must have been
// built by NewSharded from the same profile, scheme and options.
func (e *Sharded) Restore(st *ShardedState) error {
	ctrls := e.Controllers()
	if len(st.Ctrls) != len(ctrls) {
		return fmt.Errorf("sim: state has %d channels, engine has %d", len(st.Ctrls), len(ctrls))
	}
	if st.HasSplitter {
		e.lazySplitter()
		e.sp.Restore(st.Splitter)
	}
	for k, c := range ctrls {
		if st.Ctrls[k] == nil {
			return fmt.Errorf("sim: sharded channel %d: state has no controller", k)
		}
		if err := c.Restore(st.Ctrls[k]); err != nil {
			return fmt.Errorf("sim: sharded channel %d: %w", k, err)
		}
	}
	e.driven = st.Driven
	e.warmupDone = st.WarmupDone
	return nil
}
