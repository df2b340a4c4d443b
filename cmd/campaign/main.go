// Command campaign runs the deterministic adversarial campaign: long seeded
// sequences of randomized hostile events — crashes at arbitrary controller
// events, media faults, deliberate tamper, re-crashes mid-recovery —
// interleaved into realistic workloads across every scheme and several
// channel counts, each case verified against a golden shadow model under a
// zero-silent-corruption contract.
//
// Usage:
//
//	campaign -cases 5040 -seed 1 -verify          # full sweep, replayed twice
//	campaign -snapshot c.snap -save-every 500     # restartable long run
//	campaign -resume c.snap                       # continue after interruption
//	campaign -selfcheck sabotage.repro            # prove the oracle is live
//	campaign -repro sabotage.repro                # replay a failure artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"steins/internal/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body: 0 on success, 1 on a campaign failure, 2 on
// bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cases     = fs.Int("cases", 5040, "campaign cases to run")
		seed      = fs.Uint64("seed", 1, "campaign seed; the same seed yields a byte-identical report")
		schemes   = fs.String("schemes", "", "comma-separated scheme subset (default: all "+strconv.Itoa(len(campaign.DefaultSchemes()))+")")
		channels  = fs.String("channels", "", "comma-separated channel counts (default: 1,2,4)")
		workloads = fs.String("workloads", "", "comma-separated workload pool (default: "+strings.Join(campaign.DefaultWorkloads(), ",")+")")
		footprint = fs.Uint64("footprint", 0, "per-case data footprint in bytes (0: default)")
		ops       = fs.Int("ops", 0, "mean workload requests per round (0: default)")
		rounds    = fs.Int("rounds", 0, "max adversarial rounds per case (0: default)")
		every     = fs.Int("selfcheck-every", 250, "make every Nth case a deliberate corruption that MUST fail (0: never)")
		minimize  = fs.Int("minimize", 0, "re-run budget for shrinking a failing case (0: default, <0: off)")
		degraded  = fs.Bool("degraded", false, "force degraded recovery for every case (the tamper-under-arbitration slice)")
		verify    = fs.Bool("verify", false, "run the campaign twice and demand byte-identical reports")
		outPath   = fs.String("out", "", "also write the report to this file")
		artDir    = fs.String("artifact-dir", "", "write each failure's minimized repro artifact into this directory")
		snapPath  = fs.String("snapshot", "", "checkpoint the campaign to this file (see -save-every)")
		saveEvery = fs.Int("save-every", 500, "checkpoint cadence in cases when -snapshot is set")
		resume    = fs.String("resume", "", "resume a campaign from this snapshot file (other campaign flags are ignored)")
		selfcheck = fs.String("selfcheck", "", "run one deliberate-corruption case, write its repro artifact to this path, and verify it replays")
		repro     = fs.String("repro", "", "replay the repro artifact at this path and compare the classification")
		quiet     = fs.Bool("q", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "campaign: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	var logf func(string, ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}

	if *repro != "" {
		return runRepro(*repro, stdout, stderr)
	}

	chans, err := parseInts(*channels)
	if err != nil {
		fmt.Fprintf(stderr, "campaign: -channels: %v\n", err)
		return 2
	}
	cfg := campaign.Config{
		Cases:          *cases,
		Seed:           *seed,
		Schemes:        splitList(*schemes),
		Channels:       chans,
		Workloads:      splitList(*workloads),
		FootprintBytes: *footprint,
		OpsPerRound:    *ops,
		MaxRounds:      *rounds,
		SelfCheckEvery: *every,
		MinimizeBudget: *minimize,
		ForceDegraded:  *degraded,
		Logf:           logf,
	}

	if *selfcheck != "" {
		art, err := campaign.SelfCheck(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "FAIL: %v\n", err)
			return 1
		}
		if err := campaign.SaveArtifact(*selfcheck, art); err != nil {
			fmt.Fprintf(stderr, "FAIL: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "PASS selfcheck: oracle caught the deliberate corruption; artifact written to %s\n", *selfcheck)
		return 0
	}

	var rep *campaign.Report
	if *resume != "" {
		rep, err = campaign.Resume(*resume, *saveEvery, logf)
	} else if *snapPath != "" {
		rep, err = campaign.RunFrom(cfg, nil, *snapPath, *saveEvery)
	} else {
		rep, err = campaign.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "FAIL: %v\n", err)
		return 1
	}
	report := rep.String()
	fmt.Fprint(stdout, report)

	if *verify && *resume == "" {
		cfg2 := cfg
		cfg2.Logf = nil
		rep2, err := campaign.Run(cfg2)
		if err != nil {
			fmt.Fprintf(stderr, "FAIL: verify pass: %v\n", err)
			return 1
		}
		if rep2.String() != report {
			fmt.Fprintf(stderr, "FAIL: verify pass produced a different report — the campaign is not deterministic\n--- second pass ---\n%s", rep2)
			return 1
		}
		fmt.Fprintln(stdout, "verify: second pass byte-identical")
	}

	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
			fmt.Fprintf(stderr, "FAIL: %v\n", err)
			return 1
		}
	}
	if *artDir != "" {
		if err := writeArtifacts(*artDir, rep, stdout); err != nil {
			fmt.Fprintf(stderr, "FAIL: %v\n", err)
			return 1
		}
	}
	if n := rep.SilentCorruptions(); n > 0 {
		fmt.Fprintf(stderr, "FAIL: %d silent corruptions\n", n)
		return 1
	}
	return 0
}

// runRepro replays one artifact and compares the classification.
func runRepro(path string, stdout, stderr io.Writer) int {
	art, err := campaign.LoadArtifact(path)
	if err != nil {
		fmt.Fprintf(stderr, "FAIL: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "repro: case %d %s/%s ch=%d seed=%#x, recorded %s: %s\n",
		art.Case.Index, art.Case.Scheme, art.Case.Workload, art.Case.Channels,
		art.Case.Seed, art.Verdict, art.Detail)
	res, ok := campaign.Replay(art)
	if !ok {
		fmt.Fprintf(stderr, "FAIL: replay classified %s (%s), artifact recorded %s\n",
			res.Verdict, res.Detail, art.Verdict)
		return 1
	}
	fmt.Fprintf(stdout, "PASS repro: replay reproduced %s\n", res.Verdict)
	return 0
}

// writeArtifacts dumps every unexpected failure's repro artifact. The
// codec is canonical, so saving the decoded artifact writes the encoded
// bytes back exactly, through the durable atomic writer.
func writeArtifacts(dir string, rep *campaign.Report, stdout io.Writer) error {
	for i := range rep.Failures {
		f := &rep.Failures[i]
		if f.Expected || len(f.Artifact) == 0 {
			continue
		}
		a, err := campaign.DecodeArtifact(f.Artifact)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("case-%06d.repro", f.Case.Index))
		if err := campaign.SaveArtifact(path, a); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "artifact: %s\n", path)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad channel count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
