// Snapshot support: the controller's complete state as a serializable
// value, captured at a retired-op boundary (no request or eviction in
// flight). Everything a resumed run needs to be bit-identical rides along:
// data tags, quarantine set, clocks, statistics, the metadata cache with
// its exact LRU stamps, the root register file, the full device image, the
// scheme's own state, and the optional metrics collector.

package memctrl

import (
	"fmt"
	"math/bits"
	"sort"

	"steins/internal/cache"
	"steins/internal/cme"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// PolicyState is implemented by schemes that carry state beyond the shared
// controller structures (LInc registers, record/bitmap caches, volatile
// cache trees, recovery roots). A scheme without any such state (WB)
// simply doesn't implement it.
type PolicyState interface {
	// SaveState serializes the scheme's complete state.
	SaveState() ([]byte, error)
	// LoadState restores state saved by SaveState on a freshly built
	// policy of the same scheme and configuration.
	LoadState(data []byte) error
}

// StateLayout identifies the ControllerState encoding: 1 is the columnar
// layout of the tag and device tables. Checkpoints written before the
// columns carry no layout field and decode as 0; Restore rejects them
// rather than silently restoring an empty device.
const StateLayout = 1

// QuarantineState is one quarantined leaf's arbitration record.
type QuarantineState struct {
	Leaf     uint64
	Root     NodeRef
	Cause    QuarantineCause
	Evidence string
	// Readmit is the leaf's re-admission mask (bit i = data slot i freshly
	// rewritten since the quarantine verdict).
	Readmit uint64
}

// EscalationState is one line's retry-escalation count (the RAS log).
type EscalationState struct {
	Addr  uint64
	Count uint64
}

// ControllerState is the full serializable controller image. The
// configuration and the crypto engine are not captured: the restoring side
// rebuilds the controller via New from the same Config.
type ControllerState struct {
	// Layout is StateLayout for every state State captures.
	Layout uint32

	// The data tags as columns, like the device's line table (see
	// nvmem.State): TagAddrs lists the lines with a non-zero tag, sorted
	// by address, and the other three columns hold each tag's fields.
	TagAddrs   []uint64
	TagMACs    []uint64
	TagHints   []uint64
	TagWritten []bool

	Quarantined []uint64 // sorted leaf indices
	// QuarInfo carries the arbitration record and re-admission mask of each
	// quarantined leaf that has one, sorted by leaf index.
	QuarInfo []QuarantineState
	// Escalated is the retry-escalation log, sorted by address.
	Escalated []EscalationState

	Crashed      bool
	Recovered    bool
	LastRecovery RecoveryReport

	Arrival   uint64
	ReqStart  uint64
	BusyUntil uint64
	WarmupEnd uint64
	Stats     Stats

	Meta   cache.State[*sit.Node]
	Root   sit.Root
	Device nvmem.State

	// Policy is the scheme's SaveState blob; PolicyStateful records whether
	// the scheme implements PolicyState at all (so a mismatch on restore is
	// an error rather than silent loss).
	PolicyStateful bool
	Policy         []byte

	HasCollector bool
	Collector    metrics.CollectorState
}

// State captures the controller at a retired-op boundary. It fails if an
// eviction is in flight (the caller checkpointed mid-request) or the
// scheme's state cannot be serialized. Cached nodes are deep-copied, so
// the state stays valid if the controller keeps running.
func (c *Controller) State() (*ControllerState, error) {
	if len(c.evicting) != 0 {
		return nil, fmt.Errorf("memctrl: snapshot with %d evictions in flight (not a retired-op boundary)", len(c.evicting))
	}
	// Land any deferred tag MACs so the captured tag image is complete
	// (the snapshot does not serialize the engine's batch window).
	c.eng.FlushTags()
	st := &ControllerState{
		Layout:       StateLayout,
		Crashed:      c.crashed,
		Recovered:    c.recovered,
		LastRecovery: c.lastRecovery,
		Arrival:      c.arrival,
		ReqStart:     c.reqStart,
		BusyUntil:    c.busyUntil,
		WarmupEnd:    c.warmupEnd,
		Stats:        c.stats,
		Root:         c.root,
		Device:       c.dev.State(),
	}
	// Arena iteration is ascending by construction, matching the sorted
	// order the map-backed implementation produced. Zero tags (never
	// written, or an arena slot allocated but untouched) are omitted, as
	// map misses were; Tag() returns the zero value either way.
	c.tags.ForEach(func(line uint64, t *cme.Tag) {
		if *t != (cme.Tag{}) {
			st.TagAddrs = append(st.TagAddrs, line*nvmem.LineSize)
			st.TagMACs = append(st.TagMACs, t.MAC)
			st.TagHints = append(st.TagHints, t.Hint)
			st.TagWritten = append(st.TagWritten, t.Written)
		}
	})
	for w, set := range c.quarBits {
		for set != 0 {
			leaf := uint64(w)*64 + uint64(bits.TrailingZeros64(set))
			st.Quarantined = append(st.Quarantined, leaf)
			info, hasInfo := c.quarInfo[leaf]
			mask := c.readmit[leaf]
			if hasInfo || mask != 0 {
				st.QuarInfo = append(st.QuarInfo, QuarantineState{
					Leaf: leaf, Root: info.root, Cause: info.cause,
					Evidence: info.evidence, Readmit: mask,
				})
			}
			set &= set - 1
		}
	}
	for addr := range c.escalated {
		st.Escalated = append(st.Escalated, EscalationState{Addr: addr, Count: c.escalated[addr]})
	}
	sort.Slice(st.Escalated, func(i, j int) bool { return st.Escalated[i].Addr < st.Escalated[j].Addr })
	st.Meta = c.meta.State()
	for i, e := range st.Meta.Entries {
		st.Meta.Entries[i].Payload = e.Payload.Clone()
	}
	if ps, ok := c.policy.(PolicyState); ok {
		blob, err := ps.SaveState()
		if err != nil {
			return nil, fmt.Errorf("memctrl: scheme %s state: %w", c.policy.Name(), err)
		}
		st.PolicyStateful = true
		st.Policy = blob
	}
	if c.mx != nil {
		st.HasCollector = true
		st.Collector = c.mx.State()
	}
	return st, nil
}

// Restore rebuilds the controller from a captured state. The controller
// must have been built by New from the same Config and scheme factory as
// the captured one; mismatches surface as scheme-state errors or later
// divergence. A state of another layout, or whose tag or device columns
// disagree in length, is rejected before anything is overwritten. The
// metrics collector is re-created when the state carries one; fault hooks
// are left for the harness to re-register.
func (c *Controller) Restore(st *ControllerState) error {
	if st.Layout != StateLayout {
		return fmt.Errorf("memctrl: state layout %d, want %d", st.Layout, StateLayout)
	}
	if n := len(st.TagAddrs); len(st.TagMACs) != n || len(st.TagHints) != n || len(st.TagWritten) != n {
		return fmt.Errorf("memctrl: state has %d tag addresses but %d MACs, %d hints, %d written flags",
			n, len(st.TagMACs), len(st.TagHints), len(st.TagWritten))
	}
	if err := c.dev.Restore(st.Device); err != nil {
		return err
	}
	// Drop any deferred tag MACs of the pre-restore run; they belong to
	// tag slots the restore is about to overwrite.
	c.eng.DropPendingTags()
	c.tags.Reset()
	for i, addr := range st.TagAddrs {
		*c.tags.Ptr(addr / nvmem.LineSize) = cme.Tag{MAC: st.TagMACs[i], Hint: st.TagHints[i], Written: st.TagWritten[i]}
	}
	c.quarBits = nil
	c.quarN = 0
	c.quarInfo = nil
	c.readmit = nil
	for _, idx := range st.Quarantined {
		c.QuarantineLeaf(idx)
	}
	for _, q := range st.QuarInfo {
		if c.quarInfo == nil {
			c.quarInfo = make(map[uint64]quarInfo)
		}
		c.quarInfo[q.Leaf] = quarInfo{root: q.Root, cause: q.Cause, evidence: q.Evidence}
		if q.Readmit != 0 {
			if c.readmit == nil {
				c.readmit = make(map[uint64]uint64)
			}
			c.readmit[q.Leaf] = q.Readmit
		}
	}
	c.escalated = nil
	for _, e := range st.Escalated {
		if c.escalated == nil {
			c.escalated = make(map[uint64]uint64)
		}
		c.escalated[e.Addr] = e.Count
	}
	c.crashed = st.Crashed
	c.recovered = st.Recovered
	c.lastRecovery = st.LastRecovery
	c.arrival = st.Arrival
	c.reqStart = st.ReqStart
	c.busyUntil = st.BusyUntil
	c.warmupEnd = st.WarmupEnd
	c.stats = st.Stats
	c.root = st.Root
	meta := st.Meta
	meta.Entries = append([]cache.EntryState[*sit.Node](nil), st.Meta.Entries...)
	for i, e := range meta.Entries {
		meta.Entries[i].Payload = e.Payload.Clone()
	}
	c.meta.SetState(meta)
	c.evicting = c.evicting[:0]
	ps, ok := c.policy.(PolicyState)
	if ok != st.PolicyStateful {
		return fmt.Errorf("memctrl: scheme %s state mismatch (snapshot stateful=%v, scheme stateful=%v)",
			c.policy.Name(), st.PolicyStateful, ok)
	}
	if ok {
		if err := ps.LoadState(st.Policy); err != nil {
			return fmt.Errorf("memctrl: scheme %s state: %w", c.policy.Name(), err)
		}
	}
	if st.HasCollector {
		mx := metrics.NewCollector(st.Collector.Opt)
		mx.Restore(st.Collector)
		c.mx = mx
	} else {
		c.mx = nil
	}
	return nil
}
