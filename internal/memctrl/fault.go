package memctrl

import "steins/internal/nvmem"

// Event classifies the controller happenings a fault-injection harness can
// observe and crash at. The crash model follows the ADR contract the paper
// (and Anubis/STAR before it) assumes: the write-pending queue and the
// request in flight complete under residual power, so a runtime crash
// commits at the boundary of the request that retired the chosen event.
// Recovery, by contrast, is plain software with no such protection — a
// re-crash aborts it at the chosen step, so every scheme's Recover must be
// restartable from any prefix.
type Event int

// Observable event classes.
const (
	// EvLineWrite is one durable NVM line write of any class, observed at
	// the device.
	EvLineWrite Event = iota
	// EvEviction is one completed dirty metadata-cache eviction, including
	// all of its policy bookkeeping (LInc moves, parent updates, buffer
	// appends).
	EvEviction
	// EvRecordAppend is one committed update of a scheme's dirty-tracking
	// structure (a Steins record-line entry, a STAR bitmap bit).
	EvRecordAppend
	// EvOpRetired is the retirement of one data read or write request.
	EvOpRetired
	// EvRecoveryStep is one step of a recovery pass (a node regenerated,
	// verified or reinstated). Unlike the runtime events it may be crashed
	// at immediately: recovery runs without ADR cover.
	EvRecoveryStep
	// NumEvents bounds the event space for per-class counters.
	NumEvents
)

var eventNames = [...]string{"line-write", "eviction", "record-append", "op-retired", "recovery-step"}

// String returns the event-class name used in fuzzer reports.
func (e Event) String() string {
	if e < 0 || int(e) >= len(eventNames) {
		return "event(?)"
	}
	return eventNames[e]
}

// FaultHooks receives controller events. Implementations must not mutate
// controller state from the callback; they may panic to abort a recovery
// pass (the campaign's case executor does exactly that for mid-recovery
// crashes).
type FaultHooks interface {
	OnEvent(ev Event, addr uint64)
}

// SetFaultHooks installs (or, with nil, removes) the event sink. Device
// line writes are forwarded as EvLineWrite; the remaining events are
// emitted by the controller and its policy at their commit points.
func (c *Controller) SetFaultHooks(h FaultHooks) {
	c.hooks = h
	if h == nil {
		c.dev.SetWriteObserver(nil)
		return
	}
	c.dev.SetWriteObserver(func(addr uint64, _ nvmem.Class) {
		h.OnEvent(EvLineWrite, addr)
	})
}

// FaultEvent reports one event to the installed hooks, if any. Policies
// call it for the events only they can see (record appends, recovery
// steps).
func (c *Controller) FaultEvent(ev Event, addr uint64) {
	if c.hooks != nil {
		c.hooks.OnEvent(ev, addr)
	}
}
