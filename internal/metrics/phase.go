// Package metrics is the controller observability layer: per-phase
// latency attribution (where a request's cycles actually go), log-2-bucket
// latency histograms, a periodic time-series sampler of controller
// occupancy state, and JSON/CSV snapshot export.
//
// The package is deliberately free of simulator dependencies so the memory
// controller (and the BMT baseline controller) can import it; the
// controller pushes data in, nothing here reaches back out.
package metrics

// Phase is one bucket of the per-request cycle attribution. The controller
// splits every retired request's cycles across these buckets; summed over a
// run, all buckets except PhaseQueueWait partition the measured makespan
// exactly (see DESIGN.md "Per-phase latency attribution").
type Phase int

// Attribution buckets.
const (
	// PhaseQueueWait is the time a request waited for the controller to
	// finish earlier requests (reqStart - arrival). It is a latency-view
	// bucket: waits of queued requests overlap the service of the request
	// ahead of them, so this bucket is NOT part of the makespan partition.
	PhaseQueueWait Phase = iota
	// PhaseMetaFetch is metadata-chain fetch work: metadata-cache hit
	// latency plus NVM reads of SIT node lines on the verification chain.
	PhaseMetaFetch
	// PhaseVerify is hash-unit work on tree nodes: verifying fetched nodes
	// against their parent counters and sealing victims at eviction.
	PhaseVerify
	// PhaseCrypto is data-path crypto: OTP generation (AES) and the data
	// block's HMAC on reads and writes.
	PhaseCrypto
	// PhaseNVMRead is NVM data-line read latency (including re-encryption
	// reads after a minor overflow).
	PhaseNVMRead
	// PhaseWriteDrain is time stalled on the NVM write-pending queue.
	PhaseWriteDrain
	// PhaseOther is residual service time not claimed by a named bucket:
	// scheme bookkeeping (record-line maintenance, LInc register updates,
	// shadow/bitmap persists, buffer drains' non-fetch work).
	PhaseOther
	// PhaseIdle is controller idle time between requests (the gap when a
	// request arrives after the previous one retired). It completes the
	// makespan partition.
	PhaseIdle
	// NumPhases bounds the bucket space.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"queue_wait", "meta_fetch", "verify_chain", "crypto",
	"nvm_read", "write_drain", "other", "idle",
}

// String returns the snake_case bucket name used in exports.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "phase(?)"
	}
	return phaseNames[p]
}

// Breakdown is one request's per-phase cycle split.
type Breakdown [NumPhases]uint64

// servicePhases iterates the buckets that partition a request's service
// time: every bucket except PhaseQueueWait and PhaseIdle.
const serviceFirst, serviceLast = PhaseMetaFetch, PhaseOther

// NormalizeService adjusts the service buckets of bd (PhaseMetaFetch
// through PhaseOther) so they sum to exactly service cycles.
//
// Under-attribution (uninstrumented scheme bookkeeping) lands in
// PhaseOther. Over-attribution happens when the controller overlaps
// latencies — e.g. OTP generation hiding under the data fetch — in which
// case the hidden cycles are reclaimed pro-rata across all buckets, with
// the integer rounding remainder going to PhaseOther. The result is
// deterministic and the buckets always sum to service exactly.
func NormalizeService(bd *Breakdown, service uint64) {
	var total uint64
	for ph := serviceFirst; ph <= serviceLast; ph++ {
		total += bd[ph]
	}
	switch {
	case total == service:
	case total < service:
		bd[PhaseOther] += service - total
	default:
		var sum uint64
		for ph := serviceFirst; ph <= serviceLast; ph++ {
			if bd[ph] != 0 { // a request fills few buckets; each division costs tens of cycles
				bd[ph] = bd[ph] * service / total
				sum += bd[ph]
			}
		}
		bd[PhaseOther] += service - sum
	}
}

// MakespanCycles sums the makespan-partition buckets (everything except
// PhaseQueueWait) of an accumulated per-phase total.
func MakespanCycles(phases *Breakdown) uint64 {
	var sum uint64
	for ph := Phase(0); ph < NumPhases; ph++ {
		if ph == PhaseQueueWait {
			continue
		}
		sum += phases[ph]
	}
	return sum
}
