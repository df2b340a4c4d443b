// Snapshot support: Steins' state beyond the shared controller structures —
// the per-level LInc registers, the non-volatile parent-counter buffer, and
// the ADR-cached record lines with their exact LRU bookkeeping.

package steins

import (
	"fmt"

	"steins/internal/cache"
	"steins/internal/memctrl"
)

// State is the scheme's checkpointed state.
type State struct {
	LInc    []uint64
	Buf     []memctrl.NodeCounter
	Records cache.State[*recordLine]
}

// SaveState implements memctrl.PolicyState.
func (p *Policy) SaveState() ([]byte, error) {
	if p.draining {
		return nil, fmt.Errorf("steins: snapshot during a buffer drain (not a retired-op boundary)")
	}
	return memctrl.EncodePolicyState(&State{LInc: p.linc, Buf: p.buf, Records: p.records.State()})
}

// LoadState implements memctrl.PolicyState. Every buffered flush names a
// child below the top level (its parent is a tree node), and every cached
// record line lies in the record region. The buffer's length is not
// checked: EvictDirty keeps a flush whose drain failed, so a run whose
// parent fetches fail holds more than bufCap entries.
func (p *Policy) LoadState(data []byte) error {
	var st State
	if err := memctrl.DecodePolicyState(data, &st); err != nil {
		return err
	}
	if len(st.LInc) != len(p.linc) {
		return fmt.Errorf("state has %d LInc levels, scheme has %d", len(st.LInc), len(p.linc))
	}
	lay := p.c.Layout()
	if err := p.c.CheckNodeCounters("NV buffer", st.Buf, lay.Geo.Levels-1); err != nil {
		return err
	}
	if err := memctrl.CheckCachedLines("record", st.Records, lay.RecordBase, lay.RecordBytes); err != nil {
		return err
	}
	if err := p.records.SetState(st.Records); err != nil {
		return fmt.Errorf("record lines: %w", err)
	}
	p.linc, p.buf = st.LInc, st.Buf
	p.draining = false
	return nil
}
