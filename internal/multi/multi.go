// Package multi models the §IV-F deployment: several memory controllers,
// each owning one secure DIMM with its own metadata cache, integrity tree
// and recovery scheme. Client requests to different DIMMs execute in
// parallel; requests to the same DIMM serialise in its controller. Data is
// interleaved across controllers at a configurable granularity, and after
// a machine-wide power failure every DIMM recovers independently — in
// parallel — so recovery time is the maximum, not the sum.
package multi

import (
	"errors"
	"fmt"
	"sync"

	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/trace"
)

// System is a set of independent secure memory controllers behind an
// interleaved physical address space.
type System struct {
	ctrls      []*memctrl.Controller
	interleave uint64 // bytes per chunk
	dataBytes  uint64 // total protected capacity
	// lastArrival tracks, per controller, the global time of its last
	// request, so each controller sees correct local inter-arrival gaps.
	lastArrival []uint64
	now         uint64
}

// New builds a system of n controllers, each configured from the template
// (DataBytes is the per-controller capacity), with the address space
// interleaved across them in chunks of interleave bytes. With the media
// fault model enabled, controller i draws its own fault stream, seeded
// Faults.Seed + i*0x9e37; controller 0 keeps the template's.
func New(n int, template memctrl.Config, factory memctrl.PolicyFactory, interleave uint64) *System {
	if n <= 0 {
		panic("multi: need at least one controller")
	}
	if interleave == 0 || interleave%nvmem.LineSize != 0 {
		panic("multi: interleave must be a positive multiple of the line size")
	}
	s := &System{interleave: interleave, lastArrival: make([]uint64, n)}
	for i := 0; i < n; i++ {
		cfg := template
		if cfg.NVM.Faults.Enabled() {
			cfg.NVM.Faults.Seed += uint64(i) * 0x9e37
		}
		s.ctrls = append(s.ctrls, memctrl.New(cfg, factory))
	}
	s.dataBytes = uint64(n) * s.ctrls[0].Config().DataBytes
	return s
}

// Controllers returns the per-DIMM controllers.
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// DataBytes returns the system's total protected capacity.
func (s *System) DataBytes() uint64 { return s.dataBytes }

// Route validates a global address and maps it to (controller, local
// address). A bad address yields an error wrapping nvmem.ErrUnaligned or
// nvmem.ErrOutOfRange that names the caller's address.
func (s *System) Route(addr uint64) (int, uint64, error) {
	if addr%nvmem.LineSize != 0 {
		return 0, 0, fmt.Errorf("multi: %w: data address %#x", nvmem.ErrUnaligned, addr)
	}
	if addr >= s.dataBytes {
		return 0, 0, fmt.Errorf("multi: %w: data address %#x outside %#x data bytes",
			nvmem.ErrOutOfRange, addr, s.dataBytes)
	}
	i, local := trace.RouteChunk(addr, s.interleave, len(s.ctrls))
	return i, local, nil
}

// advance moves global time and returns the local gap for controller i.
func (s *System) advance(gap uint64, i int) uint64 {
	s.now += gap
	local := s.now - s.lastArrival[i]
	s.lastArrival[i] = s.now
	return local
}

// WriteData routes a write to its DIMM.
func (s *System) WriteData(gap uint64, addr uint64, data [64]byte) error {
	i, local, err := s.Route(addr)
	if err != nil {
		return err
	}
	return s.ctrls[i].WriteData(s.advance(gap, i), local, data)
}

// ReadData routes a read to its DIMM.
func (s *System) ReadData(gap uint64, addr uint64) ([64]byte, error) {
	i, local, err := s.Route(addr)
	if err != nil {
		return [64]byte{}, err
	}
	return s.ctrls[i].ReadData(s.advance(gap, i), local)
}

// Crash fails the whole machine: every controller loses its volatile
// state.
func (s *System) Crash() {
	for _, c := range s.ctrls {
		c.Crash()
	}
}

// Recover rebuilds every DIMM's metadata concurrently, one goroutine per
// controller (each owns disjoint state, so this is safe). It returns the
// per-controller reports alongside the aggregate: work summed, time the
// parallel maximum.
//
// Every controller is attempted even when some fail; the aggregate covers
// the controllers that recovered, and the error joins every per-controller
// failure (wrapped with its index) so none is masked.
func (s *System) Recover() ([]memctrl.RecoveryReport, memctrl.RecoveryReport, error) {
	reports := make([]memctrl.RecoveryReport, len(s.ctrls))
	errs := make([]error, len(s.ctrls))
	var wg sync.WaitGroup
	for i, c := range s.ctrls {
		wg.Add(1)
		go func(i int, c *memctrl.Controller) {
			defer wg.Done()
			reports[i], errs[i] = c.Recover()
		}(i, c)
	}
	wg.Wait()
	var agg memctrl.RecoveryReport
	for i := range reports {
		if errs[i] != nil {
			errs[i] = fmt.Errorf("multi: controller %d: %w", i, errs[i])
			continue
		}
		if agg.Scheme == "" {
			agg.Scheme = reports[i].Scheme
		}
		agg.NodesRecovered += reports[i].NodesRecovered
		agg.NVMReads += reports[i].NVMReads
		agg.NVMWrites += reports[i].NVMWrites
		agg.MACOps += reports[i].MACOps
		agg.TimeNS = max(agg.TimeNS, reports[i].TimeNS)
		agg.Degradation.Fold(&reports[i].Degradation)
	}
	return reports, agg, errors.Join(errs...)
}

// Replay routes a global operation stream through the system sequentially,
// op i writing payload(addr, i). It is the single-clock reference the
// sharded engine's splitter is checked against: splitting the same stream
// with trace.NewSplitter at the system's interleave must hand every
// controller the exact local (address, gap) sequence Replay produces.
// Returns the number of operations replayed.
func (s *System) Replay(st trace.Stream, payload func(addr uint64, i int) [64]byte) (int, error) {
	i := 0
	for {
		op, ok := st.Next()
		if !ok {
			return i, nil
		}
		var err error
		if op.IsWrite {
			err = s.WriteData(op.Gap, op.Addr, payload(op.Addr, i))
		} else {
			_, err = s.ReadData(op.Gap, op.Addr)
		}
		if err != nil {
			return i, fmt.Errorf("multi: %s op %d (%v %#x): %w", st.Name(), i, op.IsWrite, op.Addr, err)
		}
		i++
	}
}

// Totals is the system-wide accounting: per-DIMM counters summed,
// histograms and phase totals folded together, and both makespans the
// parallel maximum (DIMMs drain concurrently, so the slowest bounds them).
type Totals struct {
	Ctrl     memctrl.Stats
	NVM      nvmem.Stats
	Cache    cache.Stats
	EnergyPJ float64
	// ExecCycles and MeasuredExecCycles are the maxima of the per-DIMM
	// controller makespans of the same names.
	ExecCycles         uint64
	MeasuredExecCycles uint64
}

// Totals merges every DIMM's statistics into the system view.
func (s *System) Totals() Totals {
	var t Totals
	for _, c := range s.ctrls {
		st := c.Stats()
		t.Ctrl.Merge(&st)
		dst := c.Device().Stats()
		t.NVM.Merge(&dst)
		t.Cache.Merge(c.Meta().Stats())
		t.EnergyPJ += c.EnergyPJ()
		t.ExecCycles = max(t.ExecCycles, c.ExecCycles())
		t.MeasuredExecCycles = max(t.MeasuredExecCycles, c.MeasuredExecCycles())
	}
	return t
}

// SetMetrics attaches one collector per controller; each DIMM samples its
// own occupancy trajectory.
func (s *System) SetMetrics(opt metrics.Options) {
	for _, c := range s.ctrls {
		c.SetMetrics(metrics.NewCollector(opt))
	}
}
