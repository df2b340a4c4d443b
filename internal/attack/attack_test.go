package attack_test

import (
	"testing"

	"steins/internal/attack"
	"steins/internal/scheme/asit"
	"steins/internal/scheme/scue"
	"steins/internal/scheme/star"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/wb"
	"steins/internal/sim"
)

func TestNoSilentCorruptionAnyScheme(t *testing.T) {
	// The one inviolable property across every recoverable scheme and
	// every attack: no attack ever yields silently corrupted data. Each
	// attack must be detected or neutralized.
	schemes := []sim.Scheme{
		{Name: "ASIT", Factory: asit.Factory},
		{Name: "STAR", Factory: star.Factory},
		{Name: "Steins-GC", Factory: steins.Factory},
		{Name: "Steins-SC", Factory: steins.Factory, Split: true},
		{Name: "SCUE-GC", Factory: scue.Factory},
	}
	for _, s := range schemes {
		for _, sc := range attack.Scenarios() {
			rep, err := attack.Execute(s.Factory, s.Split, sc, 1)
			if err != nil {
				t.Errorf("%s/%v: %v", s.Name, sc, err)
				continue
			}
			if !rep.Applicable {
				t.Errorf("%s/%v: unexpectedly inapplicable", s.Name, sc)
				continue
			}
			if !rep.Detected && !rep.Neutralized {
				t.Errorf("%s/%v: neither detected nor neutralized", s.Name, sc)
			}
		}
	}
}

func TestSteinsDetectsCoreAttacks(t *testing.T) {
	// The paper's security analysis (§III-H): tampering caught by HMACs,
	// replay and tracking manipulation caught by the LIncs.
	mustDetect := []attack.Scenario{
		attack.TamperData, attack.TamperTag, attack.ReplayData,
		attack.TamperNode, attack.ReplayNode, attack.EraseTracking,
	}
	for _, sc := range mustDetect {
		rep, err := attack.Execute(steins.Factory, false, sc, 1)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if !rep.Detected {
			t.Errorf("Steins did not detect %v (neutralized=%v)", sc, rep.Neutralized)
		}
	}
}

func TestShardedClassificationMatchesSingleChannel(t *testing.T) {
	// Sharding the address space across channels must not change what an
	// attack classifies as: the channel owning the attacked state detects
	// (or neutralizes) it exactly as a single-channel system would, and
	// the other channels stay unaffected. Exercised for the tracking-
	// erasure attack and the two media-fault scenarios across the
	// recoverable schemes.
	schemes := []sim.Scheme{
		{Name: "Steins-GC", Factory: steins.Factory},
		{Name: "Steins-SC", Factory: steins.Factory, Split: true},
		{Name: "ASIT", Factory: asit.Factory},
		{Name: "STAR", Factory: star.Factory},
	}
	scenarios := []attack.Scenario{attack.EraseTracking, attack.MediaTag, attack.MediaRecord}
	for _, s := range schemes {
		for _, sc := range scenarios {
			base, err := attack.Execute(s.Factory, s.Split, sc, 1)
			if err != nil {
				t.Errorf("%s/%v: 1 channel: %v", s.Name, sc, err)
				continue
			}
			if !base.Detected && !base.Neutralized {
				t.Errorf("%s/%v: neither detected nor neutralized", s.Name, sc)
			}
			for _, channels := range []int{2, 4, 8} {
				rep, err := attack.Execute(s.Factory, s.Split, sc, channels)
				if err != nil {
					t.Errorf("%s/%v: %d channels: %v", s.Name, sc, channels, err)
					continue
				}
				if rep.Detected != base.Detected || rep.Neutralized != base.Neutralized ||
					rep.Where != base.Where {
					t.Errorf("%s/%v: classification diverged at %d channels: 1ch detected=%v/%s neutralized=%v, %dch detected=%v/%s neutralized=%v",
						s.Name, sc, channels,
						base.Detected, base.Where, base.Neutralized,
						channels, rep.Detected, rep.Where, rep.Neutralized)
				}
			}
		}
	}
}

func TestShardedUnevenChannelCounts(t *testing.T) {
	// Channel counts that do not divide the chunk count evenly give the
	// first channels one extra chunk each; every local address must still
	// land inside its controller's data region and the classification must
	// match the single-channel reference. (Sizing channels as
	// totalBytes/channels used to reject these configurations outright.)
	for _, sc := range []attack.Scenario{attack.TamperData, attack.ReplayData, attack.EraseTracking} {
		base, err := attack.Execute(steins.Factory, true, sc, 1)
		if err != nil {
			t.Fatalf("%v: 1 channel: %v", sc, err)
		}
		for _, channels := range []int{3, 5, 6, 7} {
			rep, err := attack.Execute(steins.Factory, true, sc, channels)
			if err != nil {
				t.Errorf("%v: %d channels: %v", sc, channels, err)
				continue
			}
			if rep.Detected != base.Detected || rep.Neutralized != base.Neutralized ||
				rep.Where != base.Where {
				t.Errorf("%v: classification diverged at %d channels: 1ch detected=%v/%s neutralized=%v, got detected=%v/%s neutralized=%v",
					sc, channels,
					base.Detected, base.Where, base.Neutralized,
					rep.Detected, rep.Where, rep.Neutralized)
			}
		}
	}
}

func TestWBInapplicable(t *testing.T) {
	rep, err := attack.Execute(wb.Factory, false, attack.TamperData, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applicable {
		t.Fatal("WB reported as recoverable")
	}
}

func TestScenarioNames(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range attack.Scenarios() {
		name := sc.String()
		if seen[name] || name == "" {
			t.Fatalf("bad scenario name %q", name)
		}
		seen[name] = true
	}
}
