package schemetest

import (
	"testing"

	"steins/internal/nvmem"
)

// TestResumeEquivalence sweeps every scheme at 1/2/4 channels (and 2/4
// under hash interleave): a run
// checkpointed and resumed at arbitrary retired-op boundaries must export
// byte-identical metrics JSON and identical recovery reports vs the
// straight run.
func TestResumeEquivalence(t *testing.T) {
	for _, tc := range ResumeCases() {
		tc := tc
		t.Run(tc.Name(), func(t *testing.T) {
			t.Parallel()
			DiffResume(t, tc, nvmem.FaultConfig{})
		})
	}
}

// TestResumeEquivalenceFaultSeed repeats the sweep on a representative
// scheme subset with the seeded media-fault model active: the fault RNG
// stream and stuck-cell overlays must round-trip through the snapshot or
// the remainder replay diverges.
func TestResumeEquivalenceFaultSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	faults := nvmem.FaultConfig{
		Seed:             13,
		TransientPerRead: 2e-3,
		DoubleBitFrac:    0.25,
		StuckPerWrite:    1e-4,
	}
	for _, tc := range ResumeCases() {
		switch tc.Scheme.Name {
		case "Steins-GC", "Steins-SC", "STAR", "SCUE-SC":
		default:
			continue
		}
		tc := tc
		t.Run(tc.Name()+"/faults", func(t *testing.T) {
			t.Parallel()
			DiffResume(t, tc, faults)
		})
	}
}
