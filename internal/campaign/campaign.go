// Package campaign is the deterministic adversarial-campaign engine: long
// seeded sequences of randomized hostile events — crash points at any
// controller event, media faults, deliberate tamper, re-crashes
// mid-recovery — interleaved into realistic workloads and executed against
// every recoverable scheme at several channel counts, with each case
// verified against a golden shadow model under a single contract: zero
// silent corruptions. Every failing case is minimized and emitted as a
// self-contained repro artifact that replays to the identical
// classification.
package campaign

import (
	"fmt"
	"sort"
	"strings"

	"steins/internal/rng"
	"steins/internal/sim"
)

// DefaultSchemes is the full evaluated scheme sweep, in sim.Schemes order.
func DefaultSchemes() []string {
	var names []string
	for _, s := range sim.Schemes() {
		names = append(names, s.Name)
	}
	return names
}

// DefaultWorkloads is the campaign workload pool: the YCSB-like KV mixes
// plus the two write-ordered persistent workloads.
func DefaultWorkloads() []string {
	return []string{"kv_a_zipf", "kv_b_zipf", "kv_d_latest", "kv_uniform", "pers_queue", "pers_hash"}
}

// Config parameterises one campaign.
type Config struct {
	Cases int
	Seed  uint64

	Schemes   []string // default DefaultSchemes
	Channels  []int    // default 1, 2, 4
	Workloads []string // default DefaultWorkloads

	FootprintBytes uint64 // per-case data footprint (default 128 KiB)
	OpsPerRound    int    // mean drive window per round (default 120)
	MaxRounds      int    // rounds per case are drawn from [1, MaxRounds]

	// SelfCheckEvery makes every Nth case a deliberate-corruption case: its
	// golden shadow is falsified pre-verify, so it MUST classify as FAIL.
	// A sabotage case that does not fail is a broken oracle and fails the
	// campaign itself. 0 disables.
	SelfCheckEvery int

	// MinimizeBudget bounds the re-runs spent shrinking a failing case's
	// schedule before the artifact is emitted (default 40; negative
	// disables minimization).
	MinimizeBudget int

	// ForceDegraded runs every case with degraded recovery instead of
	// drawing the mode 50/50 — the CI slice that pins the lifted tamper
	// gate: the full adversarial grammar against the arbitration/
	// quarantine path on every single case. The underlying random draw is
	// still consumed, so a forced campaign's schedules differ from an
	// unforced one ONLY in the mode bit and sliced runs stay
	// byte-reproducible under -verify.
	ForceDegraded bool

	Logf func(format string, args ...any)
}

func (cfg *Config) setDefaults() {
	if cfg.Cases <= 0 {
		cfg.Cases = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = DefaultSchemes()
	}
	if len(cfg.Channels) == 0 {
		cfg.Channels = []int{1, 2, 4}
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = DefaultWorkloads()
	}
	if cfg.FootprintBytes == 0 {
		cfg.FootprintBytes = 128 << 10
	}
	if cfg.OpsPerRound <= 0 {
		cfg.OpsPerRound = 120
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}
	if cfg.MinimizeBudget == 0 {
		cfg.MinimizeBudget = 40
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// GenCase derives case i of the campaign. The derivation is pure: the same
// (Config, i) always yields the same fully-specified case, which is what
// makes checkpoint/resume and the byte-identical-report guarantee work.
func GenCase(cfg *Config, i int) Case {
	cfg.setDefaults()
	c := Case{
		Index:     i,
		Scheme:    cfg.Schemes[i%len(cfg.Schemes)],
		Channels:  cfg.Channels[(i/len(cfg.Schemes))%len(cfg.Channels)],
		Seed:      caseSeed(cfg.Seed, i),
		Footprint: cfg.FootprintBytes,
	}
	sched := rng.New(c.Seed ^ 0xa0761d6478bd642f)
	c.Workload = cfg.Workloads[sched.Intn(len(cfg.Workloads))]
	c.Sched = drawSchedule(sched, cfg)
	if cfg.SelfCheckEvery > 0 && (i+1)%cfg.SelfCheckEvery == 0 {
		sabotage(&c.Sched)
	}
	return c
}

// caseSeed mixes the campaign seed and case index (splitmix64 step).
func caseSeed(seed uint64, i int) uint64 {
	x := seed + uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sabotage rewrites a schedule into the deliberate-corruption self-check
// shape: a pure workload (no crashes, faults or tamper — nothing that could
// legitimately end the case early on any scheme, including the no-recovery
// baselines) whose golden shadow is falsified before the final verify.
func sabotage(s *Schedule) {
	s.Sabotage = true
	s.Faults = (Schedule{}).Faults
	s.Degraded = false
	for i := range s.Rounds {
		s.Rounds[i] = Round{Ops: s.Rounds[i].Ops}
	}
}

// SelfCheck runs one dedicated deliberate-corruption case end to end and
// returns its repro artifact: the case's golden shadow is falsified, the
// verify MUST classify it as Fail, and the artifact must Replay to the
// identical classification. It proves the whole failure path — oracle,
// artifact encoding, replay — is live, and returns an error if any link
// is not.
func SelfCheck(cfg Config) (*Artifact, error) {
	cfg.setDefaults()
	cfg.SelfCheckEvery = 1
	c := GenCase(&cfg, 0)
	res := RunCase(c)
	if res.Verdict != Fail {
		return nil, fmt.Errorf("campaign: sabotage case classified %s, want FAIL — the corruption oracle is broken", res.Verdict)
	}
	a := &Artifact{Case: c, Verdict: res.Verdict, Detail: res.Detail}
	if rres, ok := Replay(a); !ok {
		return nil, fmt.Errorf("campaign: sabotage replay classified %s, want %s — replay is not deterministic", rres.Verdict, a.Verdict)
	}
	return a, nil
}

// Failure records one failing (or selfcheck-misbehaving) case.
type Failure struct {
	Case     Case
	Verdict  Verdict
	Detail   string
	Expected bool // a sabotage case failing as designed
	Artifact []byte
}

func (f *Failure) Error() string {
	return fmt.Sprintf("campaign case %d (%s/%s ch=%d seed=%#x): %s: %s",
		f.Case.Index, f.Case.Scheme, f.Case.Workload, f.Case.Channels,
		f.Case.Seed, f.Verdict, f.Detail)
}

// cell aggregates verdict counts for one (scheme, channels) pair.
type cell struct {
	Scheme   string
	Channels int
	Counts   [numVerdicts]uint64
}

// Report is the deterministic campaign summary: same config and seed →
// byte-identical String() at any checkpoint/resume split.
type Report struct {
	Seed      uint64
	Cases     int
	Cells     []cell // sorted by (scheme sweep order, channels)
	Failures  []Failure
	Selfcheck struct {
		Run, Failed int // Failed counts sabotage cases that did NOT fail
	}
}

// SilentCorruptions counts unexpected failures — the campaign's headline
// number, contractually zero.
func (r *Report) SilentCorruptions() int {
	n := 0
	for _, f := range r.Failures {
		if !f.Expected {
			n++
		}
	}
	return n + r.Selfcheck.Failed
}

// String renders the report deterministically.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign seed=%d cases=%d\n", r.Seed, r.Cases)
	fmt.Fprintf(&b, "%-12s %2s", "scheme", "ch")
	for v := Verdict(0); v < numVerdicts; v++ {
		fmt.Fprintf(&b, " %9s", v)
	}
	b.WriteByte('\n')
	var totals [numVerdicts]uint64
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %2d", c.Scheme, c.Channels)
		for v := range c.Counts {
			fmt.Fprintf(&b, " %9d", c.Counts[v])
			totals[v] += c.Counts[v]
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s %2s", "total", "")
	for v := range totals {
		fmt.Fprintf(&b, " %9d", totals[v])
	}
	b.WriteByte('\n')
	if r.Selfcheck.Run > 0 {
		fmt.Fprintf(&b, "selfcheck: %d deliberate-corruption cases, %d escaped the oracle\n",
			r.Selfcheck.Run, r.Selfcheck.Failed)
	}
	for i := range r.Failures {
		f := &r.Failures[i]
		if f.Expected {
			continue
		}
		fmt.Fprintf(&b, "FAILURE: %s\n", f.Error())
	}
	fmt.Fprintf(&b, "silent corruptions: %d\n", r.SilentCorruptions())
	return b.String()
}

// cellIndex locates (or creates) the aggregation cell for a case.
func (r *Report) cellFor(scheme string, channels int) *cell {
	for i := range r.Cells {
		if r.Cells[i].Scheme == scheme && r.Cells[i].Channels == channels {
			return &r.Cells[i]
		}
	}
	r.Cells = append(r.Cells, cell{Scheme: scheme, Channels: channels})
	return &r.Cells[len(r.Cells)-1]
}

// sortCells orders cells canonically: scheme sweep order, then channels.
func (r *Report) sortCells(schemes []string) {
	rank := map[string]int{}
	for i, s := range schemes {
		rank[s] = i
	}
	sort.SliceStable(r.Cells, func(i, j int) bool {
		a, b := &r.Cells[i], &r.Cells[j]
		if ra, rb := rank[a.Scheme], rank[b.Scheme]; ra != rb {
			return ra < rb
		}
		return a.Channels < b.Channels
	})
}

// Run executes the whole campaign from case 0. See RunFrom for the
// checkpointing variant.
func Run(cfg Config) (*Report, error) {
	return RunFrom(cfg, nil, "", 0)
}

// RunFrom executes the campaign starting at the state in rep (nil for a
// fresh report), checkpointing to snapshotPath every saveEvery cases when
// both are set. The returned report is byte-identical to an uninterrupted
// run of the same config.
func RunFrom(cfg Config, rep *Report, snapshotPath string, saveEvery int) (*Report, error) {
	cfg.setDefaults()
	start := 0
	if rep == nil {
		rep = &Report{Seed: cfg.Seed, Cases: cfg.Cases}
	} else {
		start = rep.Cases
		rep.Cases = cfg.Cases
	}
	for i := start; i < cfg.Cases; i++ {
		c := GenCase(&cfg, i)
		res := RunCase(c)
		switch {
		case c.Sched.Sabotage:
			// Sabotage cases check the oracle, not the scheme: they are
			// accounted on the selfcheck line, not in the scheme cells.
			rep.Selfcheck.Run++
			if res.Verdict != Fail {
				rep.Selfcheck.Failed++
				rep.Failures = append(rep.Failures, Failure{
					Case: c, Verdict: res.Verdict,
					Detail: "sabotage case escaped the oracle (expected FAIL)",
				})
			}
		case res.Verdict == Fail:
			rep.cellFor(c.Scheme, c.Channels).Counts[res.Verdict]++
			min := Minimize(c, cfg.MinimizeBudget)
			art, err := EncodeArtifact(&Artifact{Case: min, Verdict: res.Verdict, Detail: res.Detail})
			if err != nil {
				return rep, fmt.Errorf("campaign: encoding artifact for case %d: %w", i, err)
			}
			rep.Failures = append(rep.Failures, Failure{
				Case: min, Verdict: res.Verdict, Detail: res.Detail, Artifact: art,
			})
			cfg.Logf("case %d FAILED: %s/%s ch=%d: %s", i, c.Scheme, c.Workload, c.Channels, res.Detail)
		default:
			rep.cellFor(c.Scheme, c.Channels).Counts[res.Verdict]++
		}
		if (i+1)%500 == 0 {
			cfg.Logf("case %d/%d", i+1, cfg.Cases)
		}
		if snapshotPath != "" && saveEvery > 0 && (i+1)%saveEvery == 0 && i+1 < cfg.Cases {
			partial := *rep
			partial.Cases = i + 1
			if err := SaveCheckpoint(snapshotPath, &cfg, &partial); err != nil {
				return rep, err
			}
		}
	}
	rep.sortCells(cfg.Schemes)
	return rep, nil
}
