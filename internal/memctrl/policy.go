package memctrl

import (
	"steins/internal/cache"
	"steins/internal/sit"
)

// Policy is the crash-consistency scheme plugged into the controller. The
// controller funnels every metadata state change through these hooks so a
// scheme can persist recovery state (ASIT's shadow table, STAR's bitmap,
// Steins' record lines and LIncs) and charge its runtime cost; Recover
// rebuilds the tree after Crash.
//
// Hook methods return the extra cycles they add to the request critical
// path. Hooks may use the controller's fetch/evict machinery, which can
// re-enter the policy (evicting one dirty node can dirty its parent).
type Policy interface {
	// Name identifies the scheme in results ("WB-GC", "Steins-SC", ...).
	Name() string

	// CounterGen reports whether parent counters are generated from child
	// contents (Steins, §III-B) instead of self-incremented (classic SIT).
	CounterGen() bool

	// OnModify runs after a cached node's counters changed by delta (in
	// the node's FValue scalar) or, with delta 0, after the node was
	// force-marked dirty. wasClean reports a clean->dirty transition.
	OnModify(e *cache.Entry[*sit.Node], wasClean bool, delta uint64) uint64

	// EvictDirty writes a displaced dirty node back to NVM, performing
	// the scheme's parent update and HMAC generation.
	EvictDirty(victim *sit.Node) (uint64, error)

	// BeforeRead runs at the start of every data read (Steins drains its
	// non-volatile buffer here, §III-E).
	BeforeRead() (uint64, error)

	// ParentCounterOverride supplies a pending (buffered, not yet applied)
	// parent counter for verifying a fetched node, keyed by the fetched
	// node's coordinates. ok=false defers to the parent node or root.
	ParentCounterOverride(level int, index uint64) (uint64, bool)

	// OnCrash persists the scheme's ADR-domain state (cached record or
	// bitmap lines) into NVM; it runs as power fails, so it uses Poke
	// rather than timed writes. On-chip non-volatile state (LIncs, roots,
	// the NV buffer) survives inside the policy untouched.
	OnCrash()

	// Recover locates, restores and verifies the metadata lost in the
	// crash, counting its work in the report (the controller prices the
	// counts into TimeNS). It returns ErrTamper/ErrReplay (wrapped) when
	// verification fails, and ErrNoRecovery if the scheme cannot recover.
	Recover() (RecoveryReport, error)

	// Storage itemises the scheme's §IV-E storage overhead.
	Storage() StorageOverhead
}

// PolicyFactory builds a policy bound to a controller; passed to New so
// the policy can size its regions from the controller's layout.
type PolicyFactory func(*Controller) Policy
