// Crash-point injection: a memctrl.FaultHooks implementation that counts
// controller events per class and fires on the Nth occurrence of one.

package campaign

import "steins/internal/memctrl"

// crashSignal aborts a recovery pass mid-flight. It is private so the
// deferred recover() in catchRecoveryCrash can tell an injected re-crash
// from a genuine panic in the code under test (which must propagate).
type crashSignal struct{}

// injector fires on the n-th event of its target class.
//
// Runtime event classes (line writes, evictions, record appends, retired
// requests) arm the injector; the case executor commits the crash at the
// boundary of the request that retired the event, matching the ADR/WPQ
// model (internal/memctrl/fault.go). EvRecoveryStep has no ADR cover, so
// firing on it panics with a crashSignal immediately, aborting the
// recovery pass at that exact step.
type injector struct {
	target    memctrl.Event
	remaining uint64 // fire when the countdown for target reaches zero
	armed     bool
}

// newInjector returns an injector that fires on the n-th (1-based) event
// of class target. n == 0 never fires.
func newInjector(target memctrl.Event, n uint64) *injector {
	return &injector{target: target, remaining: n}
}

// OnEvent implements memctrl.FaultHooks.
func (in *injector) OnEvent(ev memctrl.Event, _ uint64) {
	if ev != in.target || in.remaining == 0 {
		return
	}
	in.remaining--
	if in.remaining > 0 {
		return
	}
	if ev == memctrl.EvRecoveryStep {
		panic(crashSignal{})
	}
	in.armed = true
}

// catchRecoveryCrash runs a recovery pass with an EvRecoveryStep injector
// installed and converts the injected abort into a return value: aborted
// reports that the injector halted the pass, err is the pass's own verdict
// otherwise. Genuine panics in the code under test propagate untouched.
func catchRecoveryCrash(fn func() error) (aborted bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(crashSignal); !ok {
				panic(p)
			}
			aborted = true
		}
	}()
	err = fn()
	return
}
