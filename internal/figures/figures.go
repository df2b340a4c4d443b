// Package figures regenerates every table and figure of the paper's
// evaluation (§IV): execution time, write/read latency, write traffic and
// energy for the GC and SC scheme sets (Figs. 9-16), recovery time versus
// metadata cache size (Fig. 17), the §IV-E storage overhead table, the
// Table I configuration listing, and the §III-B overflow analysis.
//
// Each figure is derived from a Sweep — one simulation per (workload,
// scheme) — so the expensive runs are shared across the figures that
// report different metrics of the same experiment.
package figures

import (
	"fmt"
	"math"

	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/scheme/steins"
	"steins/internal/sim"
	"steins/internal/stats"
	"steins/internal/trace"
)

// Scale selects simulation effort.
type Scale struct {
	Ops  int
	Seed uint64
	// Fig17Caches are the metadata cache sizes swept for recovery time.
	Fig17Caches []int
	// Metrics, when non-nil, attaches a metrics collector to every run of
	// a sweep, filling each Result's Snapshot for export.
	Metrics *metrics.Options
	// Channels interleaves every sweep point's trace across that many
	// controllers (<= 1: one); results are the merged system view. Above
	// one the sweep's outer job loop runs serially — the parallelism
	// budget moves inside each run.
	Channels int
	// Interleave selects the address-to-channel mapping when Channels > 1.
	Interleave trace.Interleave
}

// Quick is the unit-test/bench scale: small traces, small caches.
func Quick() Scale {
	return Scale{Ops: 20000, Seed: 1, Fig17Caches: []int{16 << 10, 32 << 10, 64 << 10}}
}

// Full approximates the paper's operating point (Table I cache, longer
// traces, cache sweep to 4 MB).
func Full() Scale {
	return Scale{
		Ops: 200000, Seed: 1,
		Fig17Caches: []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20},
	}
}

// Sweep holds one Result per (workload, scheme).
type Sweep struct {
	Workloads []string
	Schemes   []sim.Scheme
	Results   map[string]map[string]sim.Result // [workload][scheme]
}

// runSweep simulates every workload under every scheme, each pair on the
// one engine. With one channel the (workload, scheme) pairs run in
// parallel — every pair is an independent controller. With Channels > 1
// each pair drives its channels in parallel itself, so the pairs run
// serially.
func runSweep(schemes []sim.Scheme, sc Scale) (*Sweep, error) {
	sw := &Sweep{Schemes: schemes, Results: map[string]map[string]sim.Result{}}
	var jobs []sim.Job
	for _, prof := range trace.All() {
		sw.Workloads = append(sw.Workloads, prof.Name)
		sw.Results[prof.Name] = map[string]sim.Result{}
		for _, s := range schemes {
			jobs = append(jobs, sim.Job{Prof: prof, Scheme: s,
				Opt: sim.Options{Ops: sc.Ops, Seed: sc.Seed, Metrics: sc.Metrics}})
		}
	}
	if sc.Channels > 1 {
		so := sim.ShardOptions{Channels: sc.Channels, Interleave: sc.Interleave}
		for _, job := range jobs {
			res, err := sim.RunSharded(job.Prof, job.Scheme, job.Opt, so)
			if err != nil {
				return nil, fmt.Errorf("figures: %s/%s: %w", job.Prof.Name, job.Scheme.Name, err)
			}
			sw.Results[job.Prof.Name][job.Scheme.Name] = res.Merged
		}
		return sw, nil
	}
	results, err := sim.RunParallel(jobs, 0)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	for i, job := range jobs {
		sw.Results[job.Prof.Name][job.Scheme.Name] = results[i]
	}
	return sw, nil
}

// Snapshots returns the sweep's metrics snapshots in deterministic
// (workload, scheme) order; runs without an attached collector (Scale
// without Metrics) contribute nothing.
func (sw *Sweep) Snapshots() []*metrics.Snapshot {
	var snaps []*metrics.Snapshot
	for _, w := range sw.Workloads {
		for _, s := range sw.Schemes {
			if snap := sw.Results[w][s.Name].Snapshot; snap != nil {
				snaps = append(snaps, snap)
			}
		}
	}
	return snaps
}

// GCSweep runs the Fig. 9-11/13/15 scheme set (WB-GC, ASIT, STAR,
// Steins-GC).
func GCSweep(sc Scale) (*Sweep, error) { return runSweep(sim.GCComparison(), sc) }

// SCSweep runs the Fig. 12/14/16 scheme set (WB-SC, Steins-GC, Steins-SC).
func SCSweep(sc Scale) (*Sweep, error) { return runSweep(sim.SCComparison(), sc) }

// metric extracts one value from a result.
type metric func(sim.Result) float64

// ratio divides v by base, yielding NaN for a degenerate base so the
// cell formats as "n/a" and stats.GeoMean skips it.
func ratio(v, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return v / base
}

// normalizedTable renders one workload-by-scheme table of a metric
// normalised to the baseline scheme, with a geometric-mean row.
func (sw *Sweep) normalizedTable(title, baseline string, m metric) *stats.Table {
	headers := []string{"workload"}
	for _, s := range sw.Schemes {
		headers = append(headers, s.Name)
	}
	t := stats.NewTable(title, headers...)
	ratios := make(map[string][]float64)
	for _, w := range sw.Workloads {
		base := m(sw.Results[w][baseline])
		row := []string{w}
		for _, s := range sw.Schemes {
			// A degenerate baseline (e.g. a zero-cycle run) must cost only
			// this row, not the sweep: the cell renders as n/a and stays
			// out of the geomean.
			v := ratio(m(sw.Results[w][s.Name]), base)
			row = append(row, stats.F(v))
			ratios[s.Name] = append(ratios[s.Name], v)
		}
		t.AddRow(row...)
	}
	avg := []string{"geomean"}
	for _, s := range sw.Schemes {
		avg = append(avg, stats.F(stats.GeoMean(ratios[s.Name])))
	}
	t.AddRow(avg...)
	t.AddNote("normalised to %s; series shape comparable to the paper, absolute factors depend on the trace substitution (EXPERIMENTS.md)", baseline)
	return t
}

// Fig9 is execution time normalised to WB-GC.
func Fig9(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 9: execution time (normalised to WB-GC)", "WB-GC",
		func(r sim.Result) float64 { return float64(r.ExecCycles) })
}

// Fig10 is write latency normalised to WB-GC.
func Fig10(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 10: write latency (normalised to WB-GC)", "WB-GC",
		func(r sim.Result) float64 { return r.AvgWriteLat })
}

// Fig11 is read latency normalised to WB-GC.
func Fig11(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 11: read latency (normalised to WB-GC)", "WB-GC",
		func(r sim.Result) float64 { return r.AvgReadLat })
}

// Fig12 is execution time normalised to WB-SC.
func Fig12(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 12: execution time (normalised to WB-SC)", "WB-SC",
		func(r sim.Result) float64 { return float64(r.ExecCycles) })
}

// Fig13 is write traffic normalised to WB-GC.
func Fig13(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 13: write traffic (normalised to WB-GC)", "WB-GC",
		func(r sim.Result) float64 { return float64(r.WriteBytes) })
}

// Fig14 is write traffic normalised to WB-SC.
func Fig14(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 14: write traffic (normalised to WB-SC)", "WB-SC",
		func(r sim.Result) float64 { return float64(r.WriteBytes) })
}

// Fig15 is energy normalised to WB-GC.
func Fig15(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 15: energy consumption (normalised to WB-GC)", "WB-GC",
		func(r sim.Result) float64 { return r.EnergyPJ })
}

// Fig16 is energy normalised to WB-SC.
func Fig16(sw *Sweep) *stats.Table {
	return sw.normalizedTable("Fig. 16: energy consumption (normalised to WB-SC)", "WB-SC",
		func(r sim.Result) float64 { return r.EnergyPJ })
}

// Fig17 measures recovery time versus metadata cache size under the §IV-D
// methodology (all cached metadata dirty at the crash; 100 ns per NVM
// fetch). WB appears as "n/a": it cannot recover.
func Fig17(sc Scale) (*stats.Table, error) {
	schemes := []sim.Scheme{sim.ASIT, sim.STAR, sim.SteinsGC, sim.SteinsSC, sim.TriadGC, sim.TriadSC}
	headers := []string{"metadata cache"}
	for _, s := range schemes {
		headers = append(headers, s.Name)
	}
	headers = append(headers, "WB")
	t := stats.NewTable("Fig. 17: recovery time vs metadata cache size", headers...)
	for _, cacheBytes := range sc.Fig17Caches {
		row := []string{stats.Bytes(uint64(cacheBytes))}
		for _, s := range schemes {
			rep, err := sim.RecoveryAtCacheSize(s, cacheBytes, sc.Seed)
			if err != nil {
				return nil, fmt.Errorf("figures: fig17 %s @ %d: %w", s.Name, cacheBytes, err)
			}
			row = append(row, stats.Seconds(rep.TimeNS))
		}
		row = append(row, "n/a")
		t.AddRow(row...)
	}
	t.AddNote("paper at 4 MB: ASIT 0.02 s, STAR 0.065 s, Steins-GC 0.08 s, Steins-SC 0.44 s")
	t.AddNote("SCUE and PipeSIT rebuild from data blocks (capacity-scaled, §II-D) and are excluded like SCUE is in the paper; Triad reads leaf images only")
	return t, nil
}

// TableI lists the evaluated configuration.
func TableI() *stats.Table {
	cfg := memctrl.DefaultConfig(16<<30, false)
	t := stats.NewTable("Table I: evaluated NVM system", "parameter", "value")
	t.AddRow("CPU clock", fmt.Sprintf("%.0f GHz", cfg.NVM.ClockGHz))
	t.AddRow("NVM capacity", stats.Bytes(cfg.DataBytes))
	t.AddRow("PCM latency (tRCD/tCL/tCWD/tFAW/tWTR/tWR)", "48/15/13/50/7.5/300 ns")
	t.AddRow("write queue", fmt.Sprintf("%d entries, %d banks", cfg.NVM.WriteQueueEntries, cfg.NVM.WriteBanks))
	t.AddRow("metadata cache", fmt.Sprintf("%s, %d-way, LRU, 64 B blocks",
		stats.Bytes(uint64(cfg.MetaCacheBytes)), cfg.MetaCacheWays))
	gc := memctrl.NewLayout(cfg)
	scCfg := cfg
	scCfg.SplitLeaf = true
	scL := memctrl.NewLayout(scCfg)
	t.AddRow("SIT height incl. root", fmt.Sprintf("%d (GC) / %d (SC)",
		gc.Geo.HeightIncludingRoot(), scL.Geo.HeightIncludingRoot()))
	t.AddRow("hash latency", fmt.Sprintf("%d cycles", cfg.HashCycles))
	t.AddRow("non-volatile buffer", fmt.Sprintf("%d B", cfg.NVBufferBytes))
	t.AddRow("offset records", fmt.Sprintf("%s in NVM, %d lines cached",
		stats.Bytes(gc.RecordBytes), cfg.RecordCacheLines))
	return t
}

// StorageTable reproduces §IV-E: per-scheme storage overheads at 16 GB.
func StorageTable() *stats.Table {
	t := stats.NewTable("Storage overhead (16 GB NVM, §IV-E)",
		"scheme", "leaf nodes", "whole SIT", "extra NVM", "cache tax", "on-chip NV")
	for _, s := range []sim.Scheme{sim.WBGC, sim.WBSC, sim.ASIT, sim.STAR, sim.SteinsGC, sim.SteinsSC, sim.SCUEGC, sim.PipeSITGC, sim.TriadGC} {
		c := memctrl.New(memctrl.DefaultConfig(16<<30, s.Split), s.Factory)
		ov := c.Policy().Storage()
		t.AddRow(s.Name,
			stats.Bytes(c.Layout().Geo.LevelNodes[0]*64),
			stats.Bytes(ov.TreeBytes),
			stats.Bytes(ov.NVMExtraBytes),
			stats.Bytes(ov.CacheTaxBytes),
			stats.Bytes(ov.OnChipNVBytes))
	}
	t.AddNote("paper: GC leaves 2 GiB (1/8 of data), SC leaves 256 MiB (1/64); ASIT taxes 1/8 of the cache, STAR 1/64, Steins none")
	return t
}

// OverflowTable reproduces the §III-B2 overflow analysis: years until a
// 56-bit parent counter overflows at one write per 300 ns, for classic
// SIT, Steins skip-update, and the naive weighting.
func OverflowTable() *stats.Table {
	const writeNS = 300.0
	yearNS := 365.25 * 24 * 3600 * 1e9
	years := func(writesPerCount float64) float64 {
		return float64(uint64(1)<<counter.CounterBits) * writeNS * writesPerCount / yearNS
	}
	t := stats.NewTable("Overflow analysis (§III-B2)", "scheme", "counter growth per write", "years to overflow")
	t.AddRow("classic SIT (self-increment)", "1", stats.F2(years(1)))
	t.AddRow("Steins skip-update (worst case)", "2", stats.F2(years(0.5)))
	t.AddRow("naive weight 2^6*64", "up to 4096", stats.F2(years(1.0/4096)))
	t.AddNote("paper: ~685 years classic, >=342 years with skip-update; naive weighting is why §III-B1 rejects it")
	return t
}

// AblationTable quantifies Steins' §III-E design choice in isolation: the
// same workloads under full Steins-GC, Steins-GC without the non-volatile
// parent-counter buffer (parent fetches back on the write critical path),
// and the WB-GC floor, reported as write latency normalised to WB-GC.
func AblationTable(sc Scale) (*stats.Table, error) {
	noBuf := sim.Scheme{
		Name:    "Steins-GC-noNVBuf",
		Factory: steins.FactoryWithOptions(steins.Options{DisableNVBuffer: true}),
	}
	schemes := []sim.Scheme{sim.WBGC, sim.SteinsGC, noBuf}
	var jobs []sim.Job
	var workloads []string
	for _, prof := range trace.All() {
		workloads = append(workloads, prof.Name)
		for _, s := range schemes {
			jobs = append(jobs, sim.Job{Prof: prof, Scheme: s, Opt: sim.Options{Ops: sc.Ops, Seed: sc.Seed}})
		}
	}
	results, err := sim.RunParallel(jobs, 0)
	if err != nil {
		return nil, fmt.Errorf("figures: ablation: %w", err)
	}
	t := stats.NewTable("Ablation: the non-volatile buffer (§III-E), write latency vs WB-GC",
		"workload", "WB-GC", "Steins-GC", "Steins-GC-noNVBuf")
	ratios := map[string][]float64{}
	for wi, w := range workloads {
		base := results[wi*len(schemes)].AvgWriteLat
		row := []string{w}
		for si, s := range schemes {
			v := ratio(results[wi*len(schemes)+si].AvgWriteLat, base)
			row = append(row, stats.F(v))
			ratios[s.Name] = append(ratios[s.Name], v)
		}
		t.AddRow(row...)
	}
	avg := []string{"geomean"}
	for _, s := range schemes {
		avg = append(avg, stats.F(stats.GeoMean(ratios[s.Name])))
	}
	t.AddRow(avg...)
	t.AddNote("without the buffer, every dirty eviction fetches (and verifies) the parent on the write critical path")
	return t, nil
}
