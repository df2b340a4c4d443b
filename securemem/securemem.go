// Package securemem is the public API of the Steins reproduction: a secure
// non-volatile memory built from counter-mode encryption, an SGX-style
// integrity tree, and a pluggable crash-recovery scheme.
//
// A Memory protects a byte-addressable data region at 64-byte granularity.
// Writes are encrypted and authenticated; reads are verified against the
// integrity tree; Crash models a power failure and Recover restores the
// security metadata using the configured scheme:
//
//	m, err := securemem.New(securemem.Config{
//		DataBytes: 1 << 20,
//		Scheme:    securemem.SteinsSC,
//	})
//	...
//	err = m.Write(0x1000, block)
//	got, err := m.Read(0x1000)
//	m.Crash()
//	report, err := m.Recover()
//
// Integrity violations surface as errors matching ErrTamper or ErrReplay
// (via errors.Is); errors.As against *Violation yields the attacked level
// and node, the §III-H attack localization. A bad address is an error
// matching ErrUnaligned or ErrOutOfRange, never a panic.
//
// The underlying simulator charges the paper's Table I cycle costs to
// every operation, so Stats also reports the performance metrics the
// paper's figures use (execution cycles, latencies, NVM traffic, energy).
//
// # Channels
//
// Config.Channels interleaves the data region across independent channel
// controllers (the §IV-F multi-DIMM model). One engine serves every
// channel count; Channels 0 or 1 is that engine with one controller.
//
// # Concurrency
//
// A Memory is safe for concurrent use: every method serializes on an
// internal mutex, so concurrent callers observe some linearization of
// their operations — each Write or Read takes effect atomically between
// its invocation and return. The simulated clock advances in that
// linearization order, so timing statistics depend on the interleaving,
// but data-plane results (the bytes a Read returns) depend only on the
// per-address order of linearized operations.
//
// The one exception is Controller/Controllers: they hand out the
// underlying simulator objects, which are NOT internally locked. Callers
// own the exclusion there — use them only while no other goroutine is
// calling into the Memory (a quiesced instance), exactly like advanced
// snapshot or attack-injection harnesses do.
package securemem

import (
	"fmt"
	"sync"

	"steins/internal/crypt"
	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/stats"
)

// BlockSize is the access granularity in bytes.
const BlockSize = 64

// Block is one data block.
type Block = [BlockSize]byte

// Scheme selects the crash-recovery scheme.
type Scheme string

// The available schemes. The -GC variants use general counter blocks in
// the tree leaves (8 data blocks per leaf), the -SC variants split
// counter blocks (64 data blocks per leaf, the paper's recommended mode).
const (
	WBGC     Scheme = "WB-GC"     // write-back baseline, no recovery
	WBSC     Scheme = "WB-SC"     // split-counter baseline, no recovery
	ASIT     Scheme = "ASIT"      // Anubis-style shadow table
	STAR     Scheme = "STAR"      // bitmap + per-set cache-tree
	SteinsGC Scheme = "Steins-GC" // the paper's scheme, general leaves
	SteinsSC Scheme = "Steins-SC" // the paper's scheme, split leaves
	SCUEGC   Scheme = "SCUE-GC"   // recovery-root, full-tree rebuild
	SCUESC   Scheme = "SCUE-SC"

	// The relaxed-persistence family: PipeSIT pipelines tree updates with
	// coalescing, Triad persists only the lower tree levels and rebuilds
	// the rest on recovery.
	PipeSITGC Scheme = "PipeSIT-GC"
	PipeSITSC Scheme = "PipeSIT-SC"
	TriadGC   Scheme = "Triad-GC"
	TriadSC   Scheme = "Triad-SC"
)

// Schemes lists every available scheme.
func Schemes() []Scheme {
	var out []Scheme
	for _, s := range sim.Schemes() {
		out = append(out, Scheme(s.Name))
	}
	return out
}

// Integrity and address errors, re-exported from the engine. A Write or
// Read at an unaligned address returns an error matching ErrUnaligned, and
// one at or beyond DataBytes an error matching ErrOutOfRange; either names
// the caller's address.
var (
	ErrTamper     = memctrl.ErrTamper
	ErrReplay     = memctrl.ErrReplay
	ErrNoRecovery = memctrl.ErrNoRecovery
	ErrUnaligned  = nvmem.ErrUnaligned
	ErrOutOfRange = nvmem.ErrOutOfRange
)

// Violation is the structured integrity error; use errors.As to obtain
// the attacked location.
type Violation = memctrl.Violation

// DegradationReport details a degraded-mode recovery: healed and
// quarantined subtrees, the arbitration verdict behind each quarantine,
// and the bound on fenced data.
type DegradationReport = memctrl.DegradationReport

// Config configures a Memory. The zero value of every optional field
// selects the paper's Table I parameter.
type Config struct {
	// DataBytes is the protected capacity; required, a multiple of 64.
	DataBytes uint64
	// Scheme selects the recovery scheme; required.
	Scheme Scheme
	// Channels interleaves the data region across this many independent
	// channel controllers at 64-byte line granularity — the §IV-F
	// multi-DIMM model, each channel a complete secure-memory system with
	// its own integrity tree recovering in parallel. Every channel count
	// runs the same engine; 0 or 1 means one channel. DataBytes must be a
	// multiple of Channels×64.
	Channels int
	// MetaCacheBytes sizes the controller's metadata cache (default
	// 256 KiB); with channels, each channel controller gets this budget.
	MetaCacheBytes int
	// KeySeed derives the (deterministic) secret key; any value works.
	KeySeed uint64
	// Advanced exposes every low-level knob; applied last (with channels,
	// to every channel controller's configuration).
	Advanced func(*memctrl.Config)
}

// Memory is a secure NVM region with crash recovery.
type Memory struct {
	mu     sync.Mutex
	sys    *multi.System
	scheme Scheme
}

// New builds a Memory.
func New(cfg Config) (*Memory, error) {
	if cfg.DataBytes == 0 || cfg.DataBytes%BlockSize != 0 {
		return nil, fmt.Errorf("securemem: DataBytes must be a positive multiple of %d", BlockSize)
	}
	if cfg.Channels < 0 {
		return nil, fmt.Errorf("securemem: Channels must be non-negative, got %d", cfg.Channels)
	}
	scheme, ok := sim.SchemeByName(string(cfg.Scheme))
	if !ok {
		return nil, fmt.Errorf("securemem: unknown scheme %q", cfg.Scheme)
	}
	channels := cfg.Channels
	if channels == 0 {
		channels = 1
	}
	if cfg.DataBytes%(uint64(channels)*BlockSize) != 0 {
		return nil, fmt.Errorf("securemem: DataBytes %d must be a multiple of Channels×%d = %d",
			cfg.DataBytes, BlockSize, uint64(channels)*BlockSize)
	}
	mc := memctrl.DefaultConfig(cfg.DataBytes/uint64(channels), scheme.Split)
	if cfg.MetaCacheBytes != 0 {
		mc.MetaCacheBytes = cfg.MetaCacheBytes
	}
	if cfg.KeySeed != 0 {
		mc.Key = crypt.NewKey(cfg.KeySeed)
	}
	if cfg.Advanced != nil {
		cfg.Advanced(&mc)
	}
	return &Memory{sys: multi.New(channels, mc, scheme.Factory, BlockSize), scheme: cfg.Scheme}, nil
}

// Scheme returns the active recovery scheme.
func (m *Memory) Scheme() Scheme { return m.scheme }

// Channels returns the number of channel controllers (1 when
// Config.Channels is 0 or 1).
func (m *Memory) Channels() int { return len(m.sys.Controllers()) }

// Write encrypts, authenticates and persists one block. addr must be
// 64-byte aligned and inside the data region (ErrUnaligned, ErrOutOfRange).
func (m *Memory) Write(addr uint64, data Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sys.WriteData(1, addr, data)
}

// Read verifies and decrypts one block. Blocks never written read as
// zero. A verification failure returns an error matching ErrTamper.
func (m *Memory) Read(addr uint64) (Block, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sys.ReadData(1, addr)
}

// Close releases the checkpoint tables every channel controller adopted
// from a mapped checkpoint in a restore (multi.System.Close) and reports
// whether it released any. A Memory that did holds none of its data and
// must not be used again; one over the Go heap is left as it was.
func (m *Memory) Close() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sys.Close()
}

// Crash models a power failure: all volatile controller state (cached
// security metadata) is lost on every channel; NVM contents, ADR-flushed
// tracking state and on-chip non-volatile registers survive.
func (m *Memory) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sys.Crash()
}

// Recover restores the security metadata lost in the last Crash; with
// channels, every channel recovers concurrently and the report aggregates
// them (work summed, time the parallel maximum). The report quantifies
// the work; errors match ErrTamper/ErrReplay when the persisted state
// fails verification, or ErrNoRecovery for WB.
func (m *Memory) Recover() (RecoveryReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, rep, err := m.sys.Recover()
	return RecoveryReport{
		NodesRecovered: rep.NodesRecovered,
		NVMReads:       rep.NVMReads,
		NVMWrites:      rep.NVMWrites,
		MACOps:         rep.MACOps,
		SimulatedNS:    rep.TimeNS,
		Degradation:    rep.Degradation,
	}, err
}

// RecoveryReport quantifies one recovery pass under the paper's §IV-D
// cost model (100 ns per NVM fetch).
type RecoveryReport struct {
	NodesRecovered uint64
	NVMReads       uint64
	NVMWrites      uint64
	MACOps         uint64
	SimulatedNS    float64
	// Degradation details degraded-mode outcomes (healed or quarantined
	// subtrees); empty on a clean recovery.
	Degradation DegradationReport
}

// Stats reports the simulated performance counters of the run so far.
type Stats struct {
	Reads            uint64
	Writes           uint64
	ExecCycles       uint64  // controller makespan at 2 GHz
	AvgReadCycles    float64 // mean verified-read latency
	AvgWriteCycles   float64 // mean write latency
	P99ReadCycles    uint64
	P99WriteCycles   uint64
	NVMWriteBytes    uint64
	EnergyPJ         float64
	MetaCacheHitRate float64
}

// Stats returns the current counters; with channels, counters are summed,
// the makespan is the parallel maximum, and latencies are recomputed from
// the merged sums.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.sys.Totals()
	return Stats{
		Reads:            t.Ctrl.DataReads,
		Writes:           t.Ctrl.DataWrites,
		ExecCycles:       t.ExecCycles,
		AvgReadCycles:    t.Ctrl.AvgReadLatency(),
		AvgWriteCycles:   t.Ctrl.AvgWriteLatency(),
		P99ReadCycles:    t.Ctrl.ReadHist.Percentile(0.99),
		P99WriteCycles:   t.Ctrl.WriteHist.Percentile(0.99),
		NVMWriteBytes:    t.NVM.WriteBytes(),
		EnergyPJ:         t.EnergyPJ,
		MetaCacheHitRate: t.Cache.HitRate(),
	}
}

// Controller exposes the underlying simulator for advanced use (timing
// experiments, attack injection through the device, custom policies).
// With channels it returns channel 0; see Controllers. The returned
// controller is not internally locked — use it only on a quiesced Memory
// (no concurrent calls in flight).
func (m *Memory) Controller() *memctrl.Controller { return m.sys.Controllers()[0] }

// Controllers returns every channel controller, in channel order (one
// element for a single channel). Like Controller,
// the result escapes the Memory's lock: callers own the exclusion and
// must only touch the controllers while the Memory is quiesced —
// snapshot capture/restore between batches, attack injection, recovery
// orchestration.
func (m *Memory) Controllers() []*memctrl.Controller {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sys.Controllers()
}

// Describe returns a one-line summary of the configuration.
func (m *Memory) Describe() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ctrls := m.sys.Controllers()
	c, n := ctrls[0], len(ctrls)
	cfg := c.Config()
	if n > 1 {
		return fmt.Sprintf("%s over %d×%s data (%d channels), %s metadata cache/channel, tree height %d",
			m.scheme, n, stats.Bytes(cfg.DataBytes), n,
			stats.Bytes(uint64(cfg.MetaCacheBytes)),
			c.Layout().Geo.HeightIncludingRoot())
	}
	return fmt.Sprintf("%s over %s data, %s metadata cache, tree height %d",
		m.scheme, stats.Bytes(cfg.DataBytes),
		stats.Bytes(uint64(cfg.MetaCacheBytes)),
		c.Layout().Geo.HeightIncludingRoot())
}

// NVMWear summarises write-endurance consumption (§I's endurance
// concern). With channels the sums fold across devices; MaxPerLine and
// HotAddr describe the hottest line of any channel (HotAddr is that
// channel's local address).
func (m *Memory) NVMWear() nvmem.Wear {
	m.mu.Lock()
	defer m.mu.Unlock()
	var w nvmem.Wear
	for _, c := range m.sys.Controllers() {
		cw := c.Device().WearStats()
		w.LinesWritten += cw.LinesWritten
		w.TotalWrites += cw.TotalWrites
		if cw.MaxPerLine > w.MaxPerLine {
			w.MaxPerLine, w.HotAddr = cw.MaxPerLine, cw.HotAddr
		}
	}
	return w
}
