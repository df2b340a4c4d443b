// Package sim drives workload traces through secure memory controllers
// and collects the metrics the paper's figures report: execution time
// (controller makespan), read/write latency, NVM write traffic, energy,
// and — after injected crashes — recovery reports. Every run goes through
// one engine, Sharded; a zero ShardOptions is the one-controller system.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/scheme/asit"
	"steins/internal/scheme/pipesit"
	"steins/internal/scheme/scue"
	"steins/internal/scheme/star"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/triad"
	"steins/internal/scheme/wb"
	"steins/internal/trace"
)

// Scheme pairs a display name with its policy factory and leaf kind.
type Scheme struct {
	Name    string
	Factory memctrl.PolicyFactory
	Split   bool
}

// The evaluated schemes (§IV). ASIT and STAR use general counter blocks
// only, as in the paper ("neither ASIT nor STAR considers the split
// counter block").
var (
	WBGC     = Scheme{Name: "WB-GC", Factory: wb.Factory, Split: false}
	WBSC     = Scheme{Name: "WB-SC", Factory: wb.Factory, Split: true}
	ASIT     = Scheme{Name: "ASIT", Factory: asit.Factory, Split: false}
	STAR     = Scheme{Name: "STAR", Factory: star.Factory, Split: false}
	SteinsGC = Scheme{Name: "Steins-GC", Factory: steins.Factory, Split: false}
	SteinsSC = Scheme{Name: "Steins-SC", Factory: steins.Factory, Split: true}
	SCUEGC   = Scheme{Name: "SCUE-GC", Factory: scue.Factory, Split: false}
	SCUESC   = Scheme{Name: "SCUE-SC", Factory: scue.Factory, Split: true}

	// Relaxed-persistence family (ROADMAP item 3): streamlined pipelined
	// tree updates with coalescing (Freij et al.) and Triad-NVM-style
	// selective persistence (Awad et al.).
	PipeSITGC = Scheme{Name: "PipeSIT-GC", Factory: pipesit.Factory, Split: false}
	PipeSITSC = Scheme{Name: "PipeSIT-SC", Factory: pipesit.Factory, Split: true}
	TriadGC   = Scheme{Name: "Triad-GC", Factory: triad.Factory, Split: false}
	TriadSC   = Scheme{Name: "Triad-SC", Factory: triad.Factory, Split: true}
)

// Schemes lists every evaluated scheme. The order is part of the contract:
// campaign cases are derived from it.
func Schemes() []Scheme {
	return []Scheme{
		WBGC, WBSC, ASIT, STAR, SteinsGC, SteinsSC, SCUEGC, SCUESC,
		PipeSITGC, PipeSITSC, TriadGC, TriadSC,
	}
}

// SchemeByName resolves a scheme display name ("Steins-GC", "WB-SC", ...)
// case-sensitively against Schemes; snapshot resume uses it to rebuild the
// policy factory recorded in a run header.
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// GCComparison is the Fig. 9-11/13/15 scheme set.
func GCComparison() []Scheme { return []Scheme{WBGC, ASIT, STAR, SteinsGC} }

// SCComparison is the Fig. 12/14/16 scheme set.
func SCComparison() []Scheme { return []Scheme{WBSC, SteinsGC, SteinsSC} }

// Options parameterise one run.
type Options struct {
	Ops            int
	WarmupOps      int // requests replayed before stats reset (§IV's warm-up)
	Seed           uint64
	DataBytes      uint64                // 0: twice the workload footprint
	MetaCacheBytes int                   // 0: Table I 256 KB
	Configure      func(*memctrl.Config) // optional extra knobs
	// Metrics, when non-nil, attaches a metrics collector (per-phase
	// histograms + occupancy time series) and fills Result.Snapshot.
	Metrics *metrics.Options
}

// Result carries the metrics of one (workload, scheme) run.
type Result struct {
	Workload    string
	Scheme      string
	Ops         int
	ExecCycles  uint64
	AvgReadLat  float64 // cycles
	AvgWriteLat float64 // cycles
	WriteBytes  uint64
	EnergyPJ    float64
	MetaHitRate float64
	NVM         nvmem.Stats
	Ctrl        memctrl.Stats
	// Snapshot is the exportable observability view; nil unless
	// Options.Metrics was set. A pointer keeps Result comparable.
	Snapshot *metrics.Snapshot
}

// Payload derives the deterministic data block op i writes to addr, keyed
// by global address and global op ordinal. It is exported so differential
// tests and reference replays can reproduce the exact bytes a run stores,
// whatever the channel count.
func Payload(addr uint64, i int) [64]byte {
	var b [64]byte
	binary.LittleEndian.PutUint64(b[:8], addr)
	binary.LittleEndian.PutUint64(b[8:16], uint64(i))
	return b
}

// collect snapshots the metrics.
func collect(c *memctrl.Controller, prof trace.Profile, s Scheme, ops int) Result {
	st := c.Stats()
	var snap *metrics.Snapshot
	if c.Metrics() != nil {
		snap = c.MetricsSnapshot(prof.Name)
		snap.Scheme = s.Name // display name, matching Result.Scheme
	}
	return Result{
		Snapshot:    snap,
		Workload:    prof.Name,
		Scheme:      s.Name,
		Ops:         ops,
		ExecCycles:  c.MeasuredExecCycles(),
		AvgReadLat:  st.AvgReadLatency(),
		AvgWriteLat: st.AvgWriteLatency(),
		WriteBytes:  c.Device().Stats().WriteBytes(),
		EnergyPJ:    c.EnergyPJ(),
		MetaHitRate: c.Meta().Stats().HitRate(),
		NVM:         c.Device().Stats(),
		Ctrl:        st,
	}
}

// RecoveryAtCacheSize measures recovery for a given metadata cache size
// under the Fig. 17 methodology: a uniform write stream sized to fill the
// cache with distinct nodes, all forced dirty at the crash.
func RecoveryAtCacheSize(s Scheme, cacheBytes int, seed uint64) (memctrl.RecoveryReport, error) {
	cacheLines := uint64(cacheBytes / 64)
	cover := uint64(8)
	if s.Split {
		cover = 64
	}
	// Footprint large enough that cacheLines distinct leaves are touched.
	footprint := cacheLines * cover * 64 * 4
	prof := trace.Profile{
		Name:           "fig17-fill",
		FootprintBytes: footprint,
		WriteFrac:      1.0,
		GapMean:        20,
		Pattern:        trace.Uniform,
	}
	opt := Options{
		Ops:            int(cacheLines) * 6,
		Seed:           seed,
		DataBytes:      footprint,
		MetaCacheBytes: cacheBytes,
	}
	e := NewSharded(prof, s, opt, ShardOptions{})
	if err := e.DriveStream(trace.New(prof, opt.Seed, opt.Ops)); err != nil {
		return memctrl.RecoveryReport{}, err
	}
	e.ForceAllDirty()
	e.Crash()
	_, rep, err := e.Recover()
	return rep, err
}

// Job is one (workload, scheme, options) simulation for RunParallel.
type Job struct {
	Prof   trace.Profile
	Scheme Scheme
	Opt    Options
}

// RunParallel executes jobs across a worker pool, each on a one-channel
// engine (the jobs are fully independent, so the sweeps behind the paper's
// figures parallelise perfectly). workers <= 0 selects GOMAXPROCS. Results
// are positional.
//
// On failure it still returns every result that completed (failed slots
// are zero) together with all failures joined into one error, each wrapped
// with its job identity; dispatch stops once a failure is observed, so a
// broken sweep aborts quickly instead of burning through remaining jobs.
func RunParallel(jobs []Job, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := RunSharded(jobs[i].Prof, jobs[i].Scheme, jobs[i].Opt, ShardOptions{})
				if err != nil {
					errs[i] = fmt.Errorf("sim: job %d (%s/%s): %w",
						i, jobs[i].Prof.Name, jobs[i].Scheme.Name, err)
					failed.Store(true)
					continue
				}
				results[i] = res.Merged
			}
		}()
	}
	for i := range jobs {
		if failed.Load() {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}
