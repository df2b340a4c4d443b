package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"steins/internal/sim"
	"steins/internal/trace"
)

// canonicalSeed is the seed whose simulated result is pinned in
// testdata/golden_sim.json.
const canonicalSeed = 1

//go:embed testdata/golden_sim.json
var goldenSim []byte

// simChannels is the measured engine's channel count. With more than
// one, the engine's throughput follows the host's parallel capacity, which
// on a shared 2-vCPU machine moves by tens of percent over minutes (see
// README.md); the traced run's simulator rung times rungChannels against
// one channel instead.
const simChannels = 1

// rungChannels is the channel count of the simulator rung's engine.
const rungChannels = 4

// simRungOps is how many ops the simulator rung drives per engine.
const simRungOps = 1 << 18

// simSpec sizes the simulator workload. pers_hash's 128 MiB footprint is
// cut to 16 MiB so the engine's resident data stays small; its metadata
// still overflows the 256 KiB cache many times, so evictions are forced.
type simSpec struct {
	prof   trace.Profile
	lapOps int // pregenerated ops, replayed cyclically on one engine
	chunk  int // ops per timed sample
}

func simSpecFor(opt options) simSpec {
	if opt.quick {
		return simSpec{prof: profile("pers_hash", 1<<20), lapOps: 1 << 13, chunk: 1 << 7}
	}
	return simSpec{prof: profile("pers_hash", 16<<20), lapOps: 1 << 20, chunk: 1 << 15}
}

// options returns the engine settings: Steins-SC with the default 256 KiB
// metadata cache over a data region twice the footprint (the simulator's
// default).
func (s simSpec) options() (sim.Options, sim.ShardOptions) {
	return sim.Options{DataBytes: 2 * s.prof.FootprintBytes},
		sim.ShardOptions{Channels: simChannels, Interleave: trace.InterleaveLine}
}

// simInstance is one sharded engine, its pregenerated stream and the
// simulated result of the stream's first lap.
type simInstance struct {
	spec simSpec
	ops  []trace.Op
	rp   *trace.Replay // the stream, replayed cyclically
	eng  *sim.Sharded
	lap  simSummary
}

// setupSim generates the stream, builds the engine and drives the first
// lap, which touches every line the stream touches (a pool's prefill);
// the measured laps then run on the filled engine.
func setupSim(b *bench) (instance, error) {
	spec := simSpecFor(b.opt)
	t0 := time.Now()
	g := trace.New(spec.prof, b.opt.seed, spec.lapOps)
	ops := make([]trace.Op, 0, spec.lapOps)
	for {
		o, ok := g.Next()
		if !ok {
			break
		}
		ops = append(ops, o)
	}
	b.genNS = append(b.genNS, float64(time.Since(t0).Nanoseconds())/float64(len(ops)))
	opt, so := spec.options()
	s := &simInstance{spec: spec, ops: ops, rp: trace.NewReplay(spec.prof.Name, ops), eng: sim.NewSharded(spec.prof, sim.SteinsSC, opt, so)}
	if err := s.driveChunk(spec.lapOps); err != nil {
		return nil, err
	}
	s.lap = summarize(s.eng.Result().Merged)
	return s, nil
}

func (s *simInstance) close() {}

// simSummary is the simulated outcome of one lap: exact, host-independent,
// pinned for the canonical seed so a host-time change cannot move it.
type simSummary struct {
	Ops         int     `json:"ops"`
	ExecCycles  uint64  `json:"exec_cycles"`
	AvgReadLat  float64 `json:"avg_read_cycles"`
	AvgWriteLat float64 `json:"avg_write_cycles"`
	WriteBytes  uint64  `json:"nvm_write_bytes"`
	EnergyPJ    float64 `json:"energy_pj"`
	MetaHitRate float64 `json:"meta_hit_rate"`
	HashOps     uint64  `json:"hash_ops"`
	AESOps      uint64  `json:"aes_ops"`
	Overflows   uint64  `json:"overflows"`
	NVMReads    uint64  `json:"nvm_reads"`
}

func summarize(r sim.Result) simSummary {
	return simSummary{
		Ops: r.Ops, ExecCycles: r.ExecCycles, AvgReadLat: r.AvgReadLat, AvgWriteLat: r.AvgWriteLat,
		WriteBytes: r.WriteBytes, EnergyPJ: r.EnergyPJ, MetaHitRate: r.MetaHitRate,
		HashOps: r.Ctrl.HashOps, AESOps: r.Ctrl.AESOps, Overflows: r.Ctrl.Overflows,
		NVMReads: r.NVM.TotalReads(),
	}
}

// driveChunk drives the next n ops of the stream, rewinding it at its end.
func (s *simInstance) driveChunk(n int) error {
	for n > 0 {
		k, err := s.eng.DriveStreamN(s.rp, n)
		if err != nil {
			return err
		}
		n -= k
		if s.rp.Remaining() == 0 {
			s.rp.Reset()
		}
	}
	return nil
}

// measure drives the filled engine in fixed chunks, warm-up first and
// then for the run's seconds, and reports throughput over the measured
// chunks and their latency percentiles. The first lap's simulated result
// is checked against the golden file for the canonical seed, and the
// persisted trees are verified at the end.
func (s *simInstance) measure(b *bench) error {
	chunk := s.spec.chunk
	warmEnd := time.Now().Add(b.warmup())
	for time.Now().Before(warmEnd) {
		if err := s.driveChunk(chunk); err != nil {
			return err
		}
		b.attempted += uint64(chunk)
	}
	var lat []time.Duration
	var busy time.Duration
	for d := b.deadline(); !d.done(len(lat)); {
		t0 := time.Now()
		if err := s.driveChunk(chunk); err != nil {
			return err
		}
		dt := time.Since(t0)
		b.attempted += uint64(chunk)
		lat = append(lat, dt)
		busy += dt
	}
	b.set("ops_s", float64(len(lat)*chunk)/busy.Seconds(), fmt.Sprintf("%d chunks of %d ops", len(lat), chunk))
	if err := setLatency(b, micros(lat), 1, fmt.Sprintf("chunks of %d ops", chunk)); err != nil {
		return err
	}
	if err := s.eng.VerifyNVM(); err != nil {
		b.wrongf(fmt.Errorf("VerifyNVM: %w", err))
	}
	lap := s.lap
	b.info("first lap (%d ops): exec %d cycles, read %.2f / write %.2f cycles, hit rate %.4f",
		lap.Ops, lap.ExecCycles, lap.AvgReadLat, lap.AvgWriteLat, lap.MetaHitRate)
	if b.opt.seed == canonicalSeed && !b.opt.quick {
		var want simSummary
		if err := json.Unmarshal(goldenSim, &want); err != nil {
			return fmt.Errorf("golden_sim.json: %w", err)
		}
		if lap != want {
			b.wrongf(fmt.Errorf("simulated result drifted from testdata/golden_sim.json:\n got %+v\nwant %+v", lap, want))
		} else {
			b.info("simulated result matches testdata/golden_sim.json")
		}
	}
	return nil
}

// simInput is the simulator rung's stream (the first simRungOps ops of the
// workload's) and data region.
func (s *simInstance) simInput() simInput {
	opt, _ := s.spec.options()
	return simInput{name: s.spec.prof.Name, ops: s.ops[:min(simRungOps, len(s.ops))], dataBytes: opt.DataBytes, channels: rungChannels}
}

// simInput is a stream and engine shape for the simulator rung.
type simInput struct {
	name      string
	ops       []trace.Op
	dataBytes uint64
	channels  int
}

// simRung times the simulator on in.ops: the splitter alone, the
// multi-channel engine and a one-channel engine with the same total cache,
// each three times (medians), then verifies the persisted trees.
func (b *bench) simRung(in simInput) error {
	prof := trace.Profile{Name: in.name, FootprintBytes: in.dataBytes}
	opt := sim.Options{DataBytes: in.dataBytes}
	reps := 3
	if b.opt.quick {
		reps = 1
	}
	n := float64(len(in.ops))
	var split, multiCh, oneCh []float64
	var eng *sim.Sharded
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sp := trace.NewSplitter(trace.NewReplay(in.name, in.ops), in.channels, trace.InterleaveLine)
		for {
			_, k, err := sp.NextEpoch(4096)
			if err != nil {
				return err
			}
			if k == 0 {
				break
			}
		}
		split = append(split, float64(time.Since(t0).Nanoseconds())/n)

		drive := func(channels int) (*sim.Sharded, float64, error) {
			e := sim.NewSharded(prof, sim.SteinsSC, opt, sim.ShardOptions{Channels: channels, Interleave: trace.InterleaveLine})
			id := b.tr.begin(fmt.Sprintf("sim.drive/%dch", channels), -1, int64(r))
			t0 := time.Now()
			err := e.DriveStream(trace.NewReplay(in.name, in.ops))
			d := time.Since(t0)
			b.tr.end(id)
			b.attempted += uint64(len(in.ops))
			return e, float64(d.Nanoseconds()), err
		}
		e, dm, err := drive(in.channels)
		if err != nil {
			return err
		}
		_, d1, err := drive(1)
		if err != nil {
			return err
		}
		multiCh = append(multiCh, dm)
		oneCh = append(oneCh, d1)
		eng = e
	}
	if err := eng.VerifyNVM(); err != nil {
		b.wrongf(fmt.Errorf("simulator rung VerifyNVM: %w", err))
	}
	res := eng.Result()
	var most, total float64
	for _, sh := range res.Shards {
		most = max(most, float64(sh.Ops))
		total += float64(sh.Ops)
	}
	b.set("trace.split_ns_per_op", median(split), fmt.Sprintf("%d ops over %d shards", len(in.ops), in.channels))
	b.set("sim.drive_ns_per_op", median(multiCh)/n, fmt.Sprintf("%d ops, %d channels, median of %d", len(in.ops), in.channels, reps))
	b.set("sim.channel_imbalance", ratio(most, total/float64(len(res.Shards))), "max / mean channel ops")
	b.set("sim.speedup_4ch_vs_1ch", median(oneCh)/median(multiCh), fmt.Sprintf("1-channel time / %d-channel time", in.channels))
	return nil
}
