package metrics

// Options configures a Collector.
type Options struct {
	// SampleEvery is the number of retired requests between time-series
	// probes; 0 selects the default (256).
	SampleEvery uint64
	// RingCap bounds the number of samples kept (a ring: once full, the
	// oldest samples are overwritten); 0 selects the default (4096).
	RingCap int
}

// DefaultOptions returns the default sampling cadence and ring bound.
func DefaultOptions() Options { return Options{SampleEvery: 256, RingCap: 4096} }

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.SampleEvery == 0 {
		o.SampleEvery = d.SampleEvery
	}
	if o.RingCap == 0 {
		o.RingCap = d.RingCap
	}
	return o
}

// Sample is one time-series probe of controller occupancy state, captured
// every Options.SampleEvery retired requests.
type Sample struct {
	// Op is the number of requests retired in the measured phase when the
	// probe fired; Cycle the measured makespan at that point.
	Op    uint64 `json:"op"`
	Cycle uint64 `json:"cycle"`
	// MetaDirtyFrac is the dirty fraction of the metadata cache (dirty
	// lines / capacity).
	MetaDirtyFrac float64 `json:"meta_dirty_frac"`
	// TrackFill is the fill fraction of the scheme's dirty-tracking
	// structure (Steins record-line cache); 0 for schemes without one.
	TrackFill float64 `json:"track_fill"`
	// WriteQueueDepth is the NVM write-pending-queue occupancy.
	WriteQueueDepth int `json:"write_queue_depth"`
	// LIncs are the per-level trust-base magnitudes (Steins); nil for
	// schemes without them.
	LIncs []uint64 `json:"lincs,omitempty"`
}

// Collector accumulates the optional, heavier metrics a controller only
// gathers when one is attached: per-phase per-request histograms and the
// occupancy time series. The always-on phase totals live in the
// controller's own Stats; a nil *Collector disables everything here at the
// cost of one pointer check per request.
type Collector struct {
	opt     Options
	retired uint64
	// phaseHist[0] is the read path, [1] the write path; per phase, the
	// distribution of per-request cycles in that bucket (zero-cycle
	// requests are not recorded, so Count is "requests touching the
	// phase").
	phaseHist [2][NumPhases]Hist
	ring      []Sample
	next      int
	taken     uint64
}

// NewCollector builds a collector; zero option fields select defaults.
// The ring grows as probes arrive, up to RingCap, so a capacity read from
// a file allocates nothing up front.
func NewCollector(opt Options) *Collector {
	return &Collector{opt: opt.withDefaults()}
}

// Options returns the effective (defaulted) options.
func (c *Collector) Options() Options { return c.opt }

// Reset drops everything accumulated so far; the controller calls it from
// ResetStats at the end of the warm-up phase.
func (c *Collector) Reset() {
	c.retired = 0
	c.phaseHist = [2][NumPhases]Hist{}
	c.ring = c.ring[:0]
	c.next = 0
	c.taken = 0
}

// Record folds one retired request's normalized breakdown into the
// per-phase histograms and reports whether a time-series probe is due.
func (c *Collector) Record(isWrite bool, bd *Breakdown) bool {
	k := 0
	if isWrite {
		k = 1
	}
	for ph, v := range bd {
		if v != 0 {
			c.phaseHist[k][ph].Add(v)
		}
	}
	c.retired++
	return c.retired%c.opt.SampleEvery == 0
}

// AddSample appends a probe to the ring, overwriting the oldest once full.
func (c *Collector) AddSample(s Sample) {
	if len(c.ring) < c.opt.RingCap {
		c.ring = append(c.ring, s)
	} else {
		c.ring[c.next] = s
		c.next = (c.next + 1) % c.opt.RingCap
	}
	c.taken++
}

// Samples returns the retained probes in chronological order.
func (c *Collector) Samples() []Sample {
	out := make([]Sample, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	out = append(out, c.ring[:c.next]...)
	return out
}

// SamplesTaken returns the number of probes ever taken (retained plus
// overwritten).
func (c *Collector) SamplesTaken() uint64 { return c.taken }

// PhaseHist returns the per-request cycle histogram of one (path, phase).
func (c *Collector) PhaseHist(isWrite bool, ph Phase) *Hist {
	return &c.PathHists(isWrite)[ph]
}

// PathHists returns one path's full per-phase histogram array; snapshot
// building iterates it.
func (c *Collector) PathHists(isWrite bool) *[NumPhases]Hist {
	k := 0
	if isWrite {
		k = 1
	}
	return &c.phaseHist[k]
}
