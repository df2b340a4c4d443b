package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/scheme/wb"
	"steins/internal/trace"
)

func metricsOpt() Options {
	opt := smallOpt()
	mo := metrics.DefaultOptions()
	opt.Metrics = &mo
	return opt
}

// TestPhasePartitionAllSchemes is the PR's headline invariant at the sim
// level: for every scheme, the exported phase buckets (minus queue_wait)
// partition the measured makespan exactly — not just within the 1%
// acceptance bound.
func TestPhasePartitionAllSchemes(t *testing.T) {
	for _, s := range []Scheme{WBGC, WBSC, ASIT, STAR, SteinsGC, SteinsSC, SCUEGC, SCUESC} {
		opt := metricsOpt()
		opt.WarmupOps = 500 // exercise the stats+collector reset path
		res, err := run(smallProfile(), s, opt)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		snap := res.Snapshot
		if snap == nil {
			t.Fatalf("%s: Options.Metrics set but Result.Snapshot nil", s.Name)
		}
		if snap.Scheme != s.Name || snap.Workload != smallProfile().Name {
			t.Fatalf("%s: snapshot identity %q/%q", s.Name, snap.Scheme, snap.Workload)
		}
		if got := snap.Read.Ops + snap.Write.Ops; got != uint64(opt.Ops) {
			t.Fatalf("%s: snapshot ops %d, want %d", s.Name, got, opt.Ops)
		}
		if snap.ExecCycles != res.ExecCycles {
			t.Fatalf("%s: snapshot exec %d != result exec %d", s.Name, snap.ExecCycles, res.ExecCycles)
		}
		if got := snap.MakespanCycles(); got != snap.ExecCycles {
			diff := 100 * (float64(got) - float64(snap.ExecCycles)) / float64(snap.ExecCycles)
			t.Fatalf("%s: phase buckets sum to %d, makespan %d (%+.3f%%)",
				s.Name, got, snap.ExecCycles, diff)
		}
	}
}

// TestMetricsExportDeterministic: identical seeded runs must export
// byte-identical JSON, so figure pipelines diff cleanly.
func TestMetricsExportDeterministic(t *testing.T) {
	export := func() []byte {
		res, err := run(smallProfile(), SteinsSC, metricsOpt())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.Snapshot.EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs exported different JSON:\n%s\n---\n%s", a, b)
	}
}

// TestMetricsExportDeterministicWithFaults: the media-fault model draws
// from its own seeded stream, so a faulty run must be exactly as
// reproducible as a clean one — identical seeds, identical JSON bytes.
func TestMetricsExportDeterministicWithFaults(t *testing.T) {
	export := func() []byte {
		opt := metricsOpt()
		opt.Configure = func(cfg *memctrl.Config) {
			cfg.NVM.Faults = nvmem.FaultConfig{
				Seed:             7,
				TransientPerRead: 2e-3,
				DoubleBitFrac:    0.1,
				StuckPerWrite:    1e-4,
			}
		}
		res, err := run(smallProfile(), SteinsGC, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ctrl.MediaCorrected == 0 {
			t.Fatal("fault model never fired; determinism check is vacuous")
		}
		var b bytes.Buffer
		if err := res.Snapshot.EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical faulty runs exported different JSON:\n%s\n---\n%s", a, b)
	}
}

// --- RunParallel failure handling ---------------------------------------

var errInjected = errors.New("injected policy fault")

// failPolicy wraps a real policy and fails the failAt-th data read,
// exercising the sweep error paths without touching real scheme code.
type failPolicy struct {
	memctrl.Policy
	reads, failAt int
}

func (p *failPolicy) BeforeRead() (uint64, error) {
	if p.reads++; p.reads > p.failAt {
		return 0, errInjected
	}
	return p.Policy.BeforeRead()
}

func failScheme(name string, failAt int) Scheme {
	return Scheme{Name: name, Factory: func(c *memctrl.Controller) memctrl.Policy {
		return &failPolicy{Policy: wb.Factory(c), failAt: failAt}
	}}
}

func TestRunParallelPartialResults(t *testing.T) {
	// The failing job last: with one worker per job every job is dispatched
	// before the failure lands, so the completed results must survive.
	jobs := []Job{
		{Prof: smallProfile(), Scheme: WBGC, Opt: smallOpt()},
		{Prof: smallProfile(), Scheme: SteinsGC, Opt: smallOpt()},
		{Prof: smallProfile(), Scheme: failScheme("fail-wb", 0), Opt: smallOpt()},
	}
	results, err := RunParallel(jobs, 3)
	if err == nil {
		t.Fatal("sweep with a failing job returned nil error")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "sim: job 2") ||
		!strings.Contains(err.Error(), "fail-wb") {
		t.Fatalf("error missing job identity: %v", err)
	}
	for i := 0; i < 2; i++ {
		ser, serr := run(jobs[i].Prof, jobs[i].Scheme, jobs[i].Opt)
		if serr != nil {
			t.Fatal(serr)
		}
		if results[i] != ser {
			t.Fatalf("job %d: completed result lost on sweep failure", i)
		}
	}
	if results[2].ExecCycles != 0 {
		t.Fatal("failed job left a non-zero result")
	}
}

func TestRunParallelJoinsAllErrors(t *testing.T) {
	// Two failing jobs on two workers. The factories rendezvous, so
	// neither job can fail before both are dispatched — regardless of
	// GOMAXPROCS — and both failures must appear in the joined error
	// rather than the first masking the rest.
	var ready sync.WaitGroup
	ready.Add(2)
	rendezvousFail := func(name string) Scheme {
		return Scheme{Name: name, Factory: func(c *memctrl.Controller) memctrl.Policy {
			ready.Done()
			ready.Wait()
			return &failPolicy{Policy: wb.Factory(c)}
		}}
	}
	jobs := []Job{
		{Prof: smallProfile(), Scheme: rendezvousFail("fail-a"), Opt: smallOpt()},
		{Prof: smallProfile(), Scheme: rendezvousFail("fail-b"), Opt: smallOpt()},
	}
	_, err := RunParallel(jobs, 2)
	if err == nil {
		t.Fatal("nil error from all-failing sweep")
	}
	for _, want := range []string{"sim: job 0", "sim: job 1", "fail-a", "fail-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

func TestRunParallelStopsDispatchAfterFailure(t *testing.T) {
	// One worker, first job fails: the dispatcher observes the failure via
	// the send of job 1 (the store happens before that receive), so jobs
	// 2.. are never dispatched and their slots stay zero.
	jobs := []Job{{Prof: smallProfile(), Scheme: failScheme("fail-first", 0), Opt: smallOpt()}}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Prof: smallProfile(), Scheme: WBGC, Opt: smallOpt()})
	}
	results, err := RunParallel(jobs, 1)
	if err == nil {
		t.Fatal("nil error from failing sweep")
	}
	completed := 0
	for _, r := range results {
		if r.ExecCycles != 0 {
			completed++
		}
	}
	if completed > 1 {
		t.Fatalf("%d jobs completed after the first failed; dispatch did not stop", completed)
	}
}

// TestShardedSystemMetricsSnapshot checks the multi-channel metrics export:
// histograms and phase totals merge across channels, while occupancy time
// series stay per channel (trajectories of different channels cannot be
// meaningfully interleaved).
func TestShardedSystemMetricsSnapshot(t *testing.T) {
	opt := shardOpt()
	opt.Metrics = &metrics.Options{SampleEvery: 64, RingCap: 256}
	res, err := RunSharded(shardProfile(), SteinsGC, opt, ShardOptions{Channels: 2, Interleave: trace.InterleaveLine})
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	if sys == nil || len(sys.PerDIMM) != 2 {
		t.Fatalf("system snapshot %+v, want 2 per-channel snapshots", sys)
	}
	var ops, span, maxExec uint64
	for i := range sys.PerDIMM {
		d := &sys.PerDIMM[i]
		if want := fmt.Sprintf("%s#%d", shardProfile().Name, i); d.Workload != want {
			t.Fatalf("channel %d labelled %q, want %q", i, d.Workload, want)
		}
		if len(d.Series) == 0 {
			t.Fatalf("channel %d exported no time series", i)
		}
		ops += d.Ops
		span += d.MakespanCycles()
		maxExec = max(maxExec, d.ExecCycles)
	}
	m := &sys.Merged
	if m.Workload != shardProfile().Name || m.Ops != ops || m.Ops != uint64(opt.Ops) {
		t.Fatalf("merged identity/ops wrong: %q %d (want %s/%d)", m.Workload, m.Ops, shardProfile().Name, ops)
	}
	if m.ExecCycles != maxExec || res.Merged.ExecCycles != maxExec {
		t.Fatalf("merged exec %d (result %d), want parallel max %d", m.ExecCycles, res.Merged.ExecCycles, maxExec)
	}
	if got := m.MakespanCycles(); got != span {
		t.Fatalf("merged phase cycles %d, want per-channel sum %d", got, span)
	}
	if len(m.Series) != 0 {
		t.Fatal("merged snapshot interleaved per-channel time series")
	}
}
