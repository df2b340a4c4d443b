// Package memctrl implements the secure memory controller: the request
// pipeline that encrypts/decrypts user data with counter-mode encryption,
// verifies it against the SGX-style integrity tree, caches security
// metadata (Table I: 256 KB, 8-way), and delegates crash-consistency
// behaviour to a pluggable recovery scheme (Policy).
//
// The controller is a trace-driven timing-and-function simulator: every
// operation both performs the real work (actual ciphertext, actual MACs,
// actual tree state in the NVM device) and accounts its cycle cost, so one
// run yields both the paper's performance metrics and a state on which
// crash recovery and attack detection can be exercised functionally.
package memctrl

import (
	"errors"
	"fmt"

	"steins/internal/crypt"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// Config assembles the Table I system parameters.
type Config struct {
	// DataBytes is the protected user-data capacity. The paper evaluates
	// 16 GB; simulations typically model a smaller region, which scales
	// every structure proportionally.
	DataBytes uint64
	// SplitLeaf selects split-counter leaves (the -SC variants).
	SplitLeaf bool

	MetaCacheBytes int // metadata cache capacity (Table I: 256 KB)
	MetaCacheWays  int // metadata cache associativity (Table I: 8)

	HashCycles     uint64 // HMAC engine latency (Table I: 40 cycles)
	AESCycles      uint64 // AES/OTP engine latency (40 cycles)
	CacheHitCycles uint64 // metadata cache hit latency
	// RunAheadCycles bounds how far request arrivals may run ahead of the
	// controller (closed-loop core model: finite MSHRs stall the core when
	// the memory system backs up).
	RunAheadCycles uint64

	HashPJ float64 // energy per HMAC computation
	AESPJ  float64 // energy per OTP generation

	NVM nvmem.Config // CapacityBytes is derived from the layout

	Key crypt.Key
	MAC crypt.MAC
	OTP crypt.OTPGen

	// EagerUpdate switches the SIT to the eager update scheme of §II-C
	// (every ancestor updated on each write); default is lazy.
	EagerUpdate bool

	// Recovery cost model (§IV-D): reading and verifying one line from
	// NVM during recovery costs RecoveryReadNS; a restore write costs
	// RecoveryWriteNS; a MAC evaluation costs RecoveryHashNS.
	RecoveryReadNS  float64
	RecoveryWriteNS float64
	RecoveryHashNS  float64

	// WriteThroughEvery bounds how far a cached leaf counter may run ahead
	// of its NVM copy before the node is persisted in place (the §II-D
	// write-through escape hatch). It must stay below the GC tag hint
	// window (2^16) or leaf recovery could not find the counter.
	WriteThroughEvery uint64

	// Scheme knobs.
	RecordCacheLines int // Steins: record lines cached in the MC (16)
	NVBufferBytes    int // Steins: non-volatile parent-counter buffer (128 B)
	AuxCacheWays     int // associativity of record/bitmap line caches

	// ReadRetries bounds how often a detected-uncorrectable NVM read is
	// reissued (transient flips are redrawn per attempt) before the error
	// escalates to the caller.
	ReadRetries int
	// RetryBackoffCycles is the linear per-attempt backoff added to the
	// access latency of each retry.
	RetryBackoffCycles uint64
	// DegradedRecovery lets recovery continue past corrupted metadata:
	// Steins heals corrupted interior nodes from their self-verifying
	// children, other schemes quarantine the affected subtree, and the
	// RecoveryReport carries a DegradationReport. Off (the default), any
	// corruption aborts recovery with the integrity error, the pre-fault
	// behaviour.
	DegradedRecovery bool
}

// DefaultConfig returns the Table I configuration over the given data
// capacity and leaf kind.
func DefaultConfig(dataBytes uint64, splitLeaf bool) Config {
	return Config{
		DataBytes:          dataBytes,
		SplitLeaf:          splitLeaf,
		MetaCacheBytes:     256 << 10,
		MetaCacheWays:      8,
		HashCycles:         40,
		AESCycles:          40,
		CacheHitCycles:     2,
		RunAheadCycles:     500,
		HashPJ:             220,
		AESPJ:              180,
		NVM:                nvmem.DefaultConfig(),
		Key:                crypt.NewKey(0x57e1_4ab5),
		MAC:                crypt.SipMAC{},
		OTP:                crypt.FastPad{},
		RecoveryReadNS:     100,
		RecoveryWriteNS:    300,
		RecoveryHashNS:     20,
		WriteThroughEvery:  60000,
		RecordCacheLines:   16,
		NVBufferBytes:      128,
		AuxCacheWays:       4,
		ReadRetries:        3,
		RetryBackoffCycles: 32,
	}
}

// MaxMetaCacheBytes is the largest metadata cache a controller is built
// with: 16 times Fig. 17's largest (4 MiB). The cache's ways are
// allocated up front, so a size from an untrusted checkpoint header or
// tenant spec must be bounded before it reaches New.
const MaxMetaCacheBytes = 64 << 20

// ConfigError reports a Config field New cannot build a controller from.
// It is structured so harnesses can tell WHICH knob a hand-built (non-
// DefaultConfig) configuration got wrong.
type ConfigError struct {
	Field  string // the Config field name
	Value  int64  // the rejected value
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("memctrl: invalid Config.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// Validate checks a configuration and returns a normalized copy: fields
// with a well-defined degenerate meaning are clamped (NVBufferBytes < 0 is
// an absent buffer), while fields no controller can
// be built from (zero/negative cache or data sizes, associativity below
// the 2 ways eviction needs) are rejected with a *ConfigError. Both
// construction paths funnel through it: DefaultConfig output passes
// unchanged, and New applies it to every hand-built Config.
func (cfg Config) Validate() (Config, error) {
	if cfg.DataBytes == 0 {
		return cfg, &ConfigError{Field: "DataBytes", Value: 0, Reason: "no protected data region"}
	}
	if cfg.MetaCacheBytes <= 0 {
		return cfg, &ConfigError{Field: "MetaCacheBytes", Value: int64(cfg.MetaCacheBytes),
			Reason: "metadata cache needs a positive capacity"}
	}
	if cfg.MetaCacheBytes > MaxMetaCacheBytes {
		return cfg, &ConfigError{Field: "MetaCacheBytes", Value: int64(cfg.MetaCacheBytes),
			Reason: fmt.Sprintf("above the %d-byte ceiling", MaxMetaCacheBytes)}
	}
	if cfg.MetaCacheWays < 2 {
		return cfg, &ConfigError{Field: "MetaCacheWays", Value: int64(cfg.MetaCacheWays),
			Reason: "metadata cache needs at least 2 ways"}
	}
	if cfg.MetaCacheBytes < cfg.MetaCacheWays*nvmem.LineSize {
		return cfg, &ConfigError{Field: "MetaCacheBytes", Value: int64(cfg.MetaCacheBytes),
			Reason: fmt.Sprintf("smaller than one %d-way set of 64 B lines", cfg.MetaCacheWays)}
	}
	if cfg.NVBufferBytes < 0 {
		cfg.NVBufferBytes = 0
	}
	if cfg.RecordCacheLines < 0 {
		cfg.RecordCacheLines = 0
	}
	return cfg, nil
}

// Layout places every region in the NVM address space: user data at zero,
// the SIT levels above it, then the per-scheme regions (sized for every
// scheme so one device layout serves all of them; unused regions are free
// in the sparse device).
type Layout struct {
	Geo sit.Geometry
	// ASIT shadow table: one 64 B slot per metadata cache line.
	ShadowBase, ShadowBytes uint64
	// Steins offset records: one 4 B entry per metadata cache line.
	RecordBase, RecordBytes uint64
	// STAR dirty bitmap: one bit per tree node (first layer) followed at
	// L1BitmapOffset by the second layer (one bit per first-layer line).
	BitmapBase, BitmapBytes uint64
	L1BitmapOffset          uint64
	Capacity                uint64
}

// RecordEntriesPerLine is how many 4-byte offsets fit one record line.
const RecordEntriesPerLine = 16

// NewLayout computes the layout for a configuration.
func NewLayout(cfg Config) Layout {
	var l Layout
	l.Geo = sit.NewGeometry(cfg.DataBytes, cfg.SplitLeaf, cfg.DataBytes)
	cacheLines := uint64(cfg.MetaCacheBytes / nvmem.LineSize)

	l.ShadowBase = l.Geo.MetaBase + l.Geo.MetaBytes
	l.ShadowBytes = cacheLines * nvmem.LineSize

	l.RecordBase = l.ShadowBase + l.ShadowBytes
	l.RecordBytes = roundLine(cacheLines * 4)

	l.BitmapBase = l.RecordBase + l.RecordBytes
	l0 := roundLine((l.Geo.TotalNodes() + 7) / 8)
	l.L1BitmapOffset = l0
	l1 := roundLine((l0/nvmem.LineSize + 7) / 8)
	l.BitmapBytes = l0 + l1

	l.Capacity = l.BitmapBase + l.BitmapBytes
	return l
}

func roundLine(b uint64) uint64 {
	const m = nvmem.LineSize
	return (b + m - 1) / m * m
}

// RecordLines returns the number of 64 B record lines.
func (l *Layout) RecordLines() uint64 { return l.RecordBytes / nvmem.LineSize }

// BitmapLines returns the number of 64 B bitmap lines.
func (l *Layout) BitmapLines() uint64 { return l.BitmapBytes / nvmem.LineSize }

// Integrity violations surfaced by verification, runtime or recovery.
var (
	// ErrTamper marks an HMAC mismatch: data or metadata was modified.
	ErrTamper = errors.New("integrity violation: HMAC mismatch (tampering)")
	// ErrReplay marks a trust-base mismatch: stale-but-authentic state was
	// replayed (LInc shortfall, cache-tree root mismatch, ...).
	ErrReplay = errors.New("integrity violation: trust base mismatch (replay)")
	// ErrNoRecovery is returned by schemes without recovery support (WB).
	ErrNoRecovery = errors.New("scheme does not support recovery")
	// ErrUnrecoverable marks metadata that could not be restored (e.g. a
	// counter outside the recovery search window).
	ErrUnrecoverable = errors.New("metadata unrecoverable")
	// ErrMediaFault marks an access that failed on the NVM media itself:
	// a detected-uncorrectable ECC event that survived the retry budget,
	// or an access to a leaf quarantined by degraded recovery.
	ErrMediaFault = errors.New("media fault: uncorrectable NVM error")
)

// MediaFault is the structured media error; it matches ErrMediaFault via
// errors.Is and errors.As yields the failing address.
type MediaFault struct {
	// Addr is the NVM line address that failed (for a quarantined access,
	// the data address the request targeted).
	Addr uint64
	// Quarantined is set when the address belongs to a subtree degraded
	// recovery gave up on, rather than a live ECC escalation.
	Quarantined bool
	// Err is the underlying device error, if any.
	Err error
}

func (e *MediaFault) Error() string {
	if e.Quarantined {
		return fmt.Sprintf("media fault: address %#x is quarantined by degraded recovery", e.Addr)
	}
	return fmt.Sprintf("media fault: uncorrectable NVM error at %#x after retries: %v", e.Addr, e.Err)
}

// Unwrap lets errors.Is classify the failure.
func (e *MediaFault) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrMediaFault}
	}
	return []error{ErrMediaFault, e.Err}
}
