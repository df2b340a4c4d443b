package memctrl

import (
	"fmt"

	"steins/internal/metrics"
)

// Stats aggregates controller-side activity for one run. NVM-side counters
// (per-class reads/writes, stall cycles) live in the device's own stats.
type Stats struct {
	DataReads   uint64
	DataWrites  uint64
	ReadLatSum  uint64 // cycles, includes controller queueing
	WriteLatSum uint64
	HashOps     uint64 // MAC engine invocations
	AESOps      uint64 // OTP generations
	Overflows   uint64 // split-leaf minor overflows (re-encryption events)
	Reencrypts  uint64 // data blocks re-encrypted by overflows

	// Media-fault read-path counters (the device's own Stats.Faults hold
	// the raw event counts; these count the controller's responses).
	MediaCorrected     uint64 // reads the device ECC silently repaired
	MediaRetried       uint64 // read retries issued after uncorrectable events
	MediaEscalated     uint64 // reads that exhausted the retry budget
	MediaUnrecoverable uint64 // user-visible requests failed by media faults

	// Latency distributions (cycles), for tail analysis beyond the means
	// the paper reports.
	ReadHist  metrics.Hist
	WriteHist metrics.Hist

	// Per-phase cycle attribution, accumulated per path. For each retired
	// request the controller splits its cycles across the metrics.Phase
	// buckets; summed over a run, every bucket except PhaseQueueWait
	// partitions MeasuredExecCycles exactly (idle gaps are attributed to
	// the request that ended them). PhaseQueueWait is the latency view:
	// it overlaps the service of preceding requests.
	ReadPhases  metrics.Breakdown
	WritePhases metrics.Breakdown
}

// Merge folds another controller's statistics into s; the multi-controller
// system builds its system-wide view this way. Histograms merge
// bucket-wise, counters and phase totals add.
func (s *Stats) Merge(o *Stats) {
	s.DataReads += o.DataReads
	s.DataWrites += o.DataWrites
	s.ReadLatSum += o.ReadLatSum
	s.WriteLatSum += o.WriteLatSum
	s.HashOps += o.HashOps
	s.AESOps += o.AESOps
	s.Overflows += o.Overflows
	s.Reencrypts += o.Reencrypts
	s.MediaCorrected += o.MediaCorrected
	s.MediaRetried += o.MediaRetried
	s.MediaEscalated += o.MediaEscalated
	s.MediaUnrecoverable += o.MediaUnrecoverable
	s.ReadHist.Merge(&o.ReadHist)
	s.WriteHist.Merge(&o.WriteHist)
	for ph := range s.ReadPhases {
		s.ReadPhases[ph] += o.ReadPhases[ph]
		s.WritePhases[ph] += o.WritePhases[ph]
	}
}

// PhaseCycles returns the combined read+write cycles attributed to one
// bucket.
func (s *Stats) PhaseCycles(ph metrics.Phase) uint64 {
	return s.ReadPhases[ph] + s.WritePhases[ph]
}

// MakespanPhaseCycles sums the makespan-partition buckets of both paths;
// it equals MeasuredExecCycles by construction.
func (s *Stats) MakespanPhaseCycles() uint64 {
	return metrics.MakespanCycles(&s.ReadPhases) + metrics.MakespanCycles(&s.WritePhases)
}

// AvgReadLatency returns mean read latency in cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.DataReads == 0 {
		return 0
	}
	return float64(s.ReadLatSum) / float64(s.DataReads)
}

// AvgWriteLatency returns mean write latency in cycles.
func (s Stats) AvgWriteLatency() float64 {
	if s.DataWrites == 0 {
		return 0
	}
	return float64(s.WriteLatSum) / float64(s.DataWrites)
}

// RecoveryReport quantifies one recovery pass (§IV-D cost model: time is
// dominated by NVM fetches at RecoveryReadNS each, plus restore writes and
// MAC computations).
type RecoveryReport struct {
	Scheme         string
	NodesRecovered uint64
	NVMReads       uint64
	NVMWrites      uint64
	MACOps         uint64
	TimeNS         float64
	// Degradation describes what degraded recovery healed, quarantined or
	// lost; empty on a clean recovery or with DegradedRecovery off.
	Degradation DegradationReport
}

// NodeRef names one tree node in a DegradationReport or a scheme's
// checkpointed state (NodeCounter). Level -1 refers to a data-leaf region
// identified by Index (the leaf index).
type NodeRef struct {
	Level int
	Index uint64
}

// DegradationReport is the structured outcome of a degraded recovery:
// which nodes were healed in place, which subtrees were quarantined (their
// data remains stored but every access returns a MediaFault), and which
// were entirely unrecoverable, plus the resulting worst-case data-loss
// bound in bytes.
type DegradationReport struct {
	Healed        []NodeRef
	Quarantined   []NodeRef
	Unrecoverable []NodeRef
	// Records carries the arbitration verdict of each Quarantined entry
	// (same order): the cause class and the media-evidence summary the
	// verdict was made against.
	Records            []QuarantineRecord
	DataLossBoundBytes uint64
}

// QuarantineRecord is one quarantine root together with its arbitration.
type QuarantineRecord struct {
	Node     NodeRef
	Cause    QuarantineCause
	Evidence string
	// DataLo/DataHi bound the fenced data coverage as a half-open byte
	// range of controller-local addresses (channel-local under sharding).
	DataLo, DataHi uint64
}

// ReplayShaped reports whether any quarantine verdict was replay-shaped or
// ambiguous — damage no recorded media evidence explains.
func (d *DegradationReport) ReplayShaped() bool {
	for _, r := range d.Records {
		if !r.Cause.MediaExplained() {
			return true
		}
	}
	return false
}

// Degraded reports whether anything deviated from a clean recovery.
func (d *DegradationReport) Degraded() bool {
	return len(d.Healed) > 0 || len(d.Quarantined) > 0 || len(d.Unrecoverable) > 0
}

// Fold accumulates another report (another channel's, under
// multi.System.Recover).
func (d *DegradationReport) Fold(o *DegradationReport) {
	d.Healed = append(d.Healed, o.Healed...)
	d.Quarantined = append(d.Quarantined, o.Quarantined...)
	d.Unrecoverable = append(d.Unrecoverable, o.Unrecoverable...)
	d.Records = append(d.Records, o.Records...)
	d.DataLossBoundBytes += o.DataLossBoundBytes
}

// StorageOverhead itemises a scheme's §IV-E storage costs.
type StorageOverhead struct {
	TreeBytes      uint64 // SIT nodes in NVM
	NVMExtraBytes  uint64 // shadow table / records / bitmap in NVM
	CacheTaxBytes  uint64 // metadata cache capacity consumed by the scheme
	OnChipNVBytes  uint64 // non-volatile registers/buffers on chip
	OnChipSRBytes  uint64 // volatile on-chip structures (cache-tree interior)
	LeafCoverBytes uint64 // data bytes covered per leaf node
}

// Violation is the structured integrity error every verification failure
// carries: §III-H notes that top-down verification localises the attack,
// so the error names the level and node (or data address) that failed.
// errors.Is(err, ErrTamper/ErrReplay) matches through Unwrap.
type Violation struct {
	Kind     error  // ErrTamper or ErrReplay
	Where    string // human-readable site ("SIT node", "data block", ...)
	Level    int    // tree level, -1 for data blocks and region-wide checks
	Index    uint64 // node index within the level
	DataAddr uint64 // data address for data-block violations
	Detail   string // extra context
}

// Error implements error.
func (v *Violation) Error() string {
	msg := v.Kind.Error() + ": " + v.Where
	if v.Level >= 0 {
		msg += fmt.Sprintf(" level %d index %d", v.Level, v.Index)
	}
	if v.Where == "data block" {
		msg += fmt.Sprintf(" %#x", v.DataAddr)
	}
	if v.Detail != "" {
		msg += " (" + v.Detail + ")"
	}
	return msg
}

// Unwrap lets errors.Is match ErrTamper/ErrReplay.
func (v *Violation) Unwrap() error { return v.Kind }

// TamperAt builds a tampering violation for a tree node.
func TamperAt(where string, level int, index uint64, detail string) error {
	return &Violation{Kind: ErrTamper, Where: where, Level: level, Index: index, Detail: detail}
}

// ReplayAt builds a replay violation for a tree level or node.
func ReplayAt(where string, level int, index uint64, detail string) error {
	return &Violation{Kind: ErrReplay, Where: where, Level: level, Index: index, Detail: detail}
}

// TamperData builds a tampering violation for a data block.
func TamperData(addr uint64, detail string) error {
	return &Violation{Kind: ErrTamper, Where: "data block", Level: -1, DataAddr: addr, Detail: detail}
}

// ReplayData builds a replay violation for a data block.
func ReplayData(addr uint64, detail string) error {
	return &Violation{Kind: ErrReplay, Where: "data block", Level: -1, DataAddr: addr, Detail: detail}
}
