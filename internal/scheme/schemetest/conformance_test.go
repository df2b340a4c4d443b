package schemetest_test

import (
	"fmt"
	"testing"

	"steins/internal/scheme/schemetest"
	"steins/internal/sim"
	"steins/internal/trace"
)

// channelConfigs is the channel axis of the conformance tables: the
// 1-channel reference plus every interleave mode at multiple widths
// (including a width that does not divide the line count evenly).
var channelConfigs = []struct {
	Channels   int
	Interleave trace.Interleave
}{
	{1, trace.InterleaveLine},
	{4, trace.InterleaveLine},
	{4, trace.InterleavePage},
	{3, trace.InterleaveHash},
}

func configName(ch int, iv trace.Interleave) string {
	if ch == 1 {
		return "1ch"
	}
	return fmt.Sprintf("%dch-%s", ch, iv)
}

// TestShardedConformance is the tentpole differential suite: every scheme,
// every channel configuration against one channel — identical retired
// ops, identical per-line data and counter state, statistics that are the
// exact shard sums, and phase buckets that partition each shard's makespan.
func TestShardedConformance(t *testing.T) {
	for _, s := range sim.Schemes() {
		for _, cc := range channelConfigs {
			if cc.Channels == 1 {
				continue // DiffSharded runs the 1-channel reference itself
			}
			t.Run(s.Name+"/"+configName(cc.Channels, cc.Interleave), func(t *testing.T) {
				schemetest.DiffSharded(t, s, cc.Channels, cc.Interleave)
			})
		}
	}
}

// TestShardedCrashRecoveryConformance checks the crash leg shard by shard:
// force-dirty, whole-machine crash, per-channel recovery, consistent
// aggregate reports, clean tree audits, intact data. Write-back baselines
// skip themselves (no recovery path).
func TestShardedCrashRecoveryConformance(t *testing.T) {
	for _, s := range sim.Schemes() {
		for _, cc := range channelConfigs {
			t.Run(s.Name+"/"+configName(cc.Channels, cc.Interleave), func(t *testing.T) {
				schemetest.DiffShardedCrash(t, s, cc.Channels, cc.Interleave)
			})
		}
	}
}

// TestMonotoneCountersConformance checks, at two checkpoints, that every
// line's encryption counter equals its cumulative write count and never
// regresses — per scheme, for 1-channel and N-channel configurations.
func TestMonotoneCountersConformance(t *testing.T) {
	for _, s := range sim.Schemes() {
		for _, cc := range channelConfigs {
			t.Run(s.Name+"/"+configName(cc.Channels, cc.Interleave), func(t *testing.T) {
				schemetest.MonotoneCounters(t, s, cc.Channels, cc.Interleave)
			})
		}
	}
}

// TestRunShardedWithCrashAllSchemes exercises the packaged crash wrapper
// across the recoverable schemes on two channels.
func TestRunShardedWithCrashAllSchemes(t *testing.T) {
	for _, s := range sim.Schemes() {
		if s.Name == "WB-GC" || s.Name == "WB-SC" {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			prof := schemetest.ConformanceProfile()
			opt := schemetest.ConformanceOptions(2000)
			res, rep, err := sim.RunShardedWithCrash(prof, s, opt,
				sim.ShardOptions{Channels: 2, Interleave: trace.InterleaveLine}, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Merged.Ops != opt.Ops {
				t.Fatalf("retired %d ops, want %d", res.Merged.Ops, opt.Ops)
			}
			if rep.TimeNS <= 0 || rep.NVMReads == 0 {
				t.Fatalf("implausible aggregate recovery report: %+v", rep)
			}
		})
	}
}
