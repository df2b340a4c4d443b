package metrics

import (
	"encoding/binary"
	"fmt"
)

// Hist has no exported fields, so gob would silently encode it as empty and
// every embedded histogram (memctrl.Stats.ReadHist/WriteHist, collector
// phase histograms) would be lost on restore. GobEncode/GobDecode give it an
// explicit fixed-width little-endian wire form instead.

const histWireLen = (48 + 3) * 8

// GobEncode serializes the histogram: 48 buckets, count, sum, max, each as
// a little-endian uint64.
func (h Hist) GobEncode() ([]byte, error) {
	buf := make([]byte, histWireLen)
	for i, b := range h.buckets {
		binary.LittleEndian.PutUint64(buf[i*8:], b)
	}
	binary.LittleEndian.PutUint64(buf[48*8:], h.count)
	binary.LittleEndian.PutUint64(buf[49*8:], h.sum)
	binary.LittleEndian.PutUint64(buf[50*8:], h.max)
	return buf, nil
}

// GobDecode restores a histogram serialized by GobEncode.
func (h *Hist) GobDecode(buf []byte) error {
	if len(buf) != histWireLen {
		return errHistWire
	}
	for i := range h.buckets {
		h.buckets[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	h.count = binary.LittleEndian.Uint64(buf[48*8:])
	h.sum = binary.LittleEndian.Uint64(buf[49*8:])
	h.max = binary.LittleEndian.Uint64(buf[50*8:])
	return nil
}

type histWireError struct{}

func (histWireError) Error() string { return "metrics: malformed Hist wire data" }

var errHistWire = histWireError{}

// CollectorState is the serializable image of a Collector. The ring is
// captured verbatim (contents, write cursor and lifetime probe count) so a
// restored collector keeps rotating and dropping samples exactly where the
// original would.
type CollectorState struct {
	Opt       Options
	Retired   uint64
	PhaseHist [2][NumPhases]Hist
	Ring      []Sample
	Next      int
	Taken     uint64
}

// State captures the collector for a snapshot. Samples are copied.
func (c *Collector) State() CollectorState {
	st := CollectorState{
		Opt:       c.opt,
		Retired:   c.retired,
		PhaseHist: c.phaseHist,
		Next:      c.next,
		Taken:     c.taken,
	}
	st.Ring = append([]Sample(nil), c.ring...)
	for i, s := range st.Ring {
		st.Ring[i].LIncs = append([]uint64(nil), s.LIncs...)
	}
	return st
}

// RestoreCollector rebuilds a collector from a captured state. A state no
// collector could have captured is an error: options not in their
// effective (defaulted) form, more samples than the ring holds, or a write
// cursor off the ring. The restored ring grows from the samples it holds
// up to RingCap as probes arrive, so a crafted capacity allocates nothing.
func RestoreCollector(st CollectorState) (*Collector, error) {
	o := st.Opt
	if o != o.withDefaults() {
		return nil, fmt.Errorf("metrics: collector options %+v are not in effective form", o)
	}
	n := len(st.Ring)
	if n > o.RingCap || st.Next < 0 || st.Next >= max(n, 1) || st.Next != 0 && n < o.RingCap {
		return nil, fmt.Errorf("metrics: collector ring of %d samples, cursor %d, capacity %d", n, st.Next, o.RingCap)
	}
	c := &Collector{opt: o, retired: st.Retired, phaseHist: st.PhaseHist, next: st.Next, taken: st.Taken}
	c.ring = make([]Sample, n)
	copy(c.ring, st.Ring)
	for i, s := range c.ring {
		c.ring[i].LIncs = append([]uint64(nil), s.LIncs...)
	}
	return c, nil
}
