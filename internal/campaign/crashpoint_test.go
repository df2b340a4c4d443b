package campaign

import (
	"testing"

	"steins/internal/memctrl"
)

// oneChannel is a single-controller case: one 4 KiB metadata cache over
// the whole footprint, so eviction churn is steady even on small ones.
func oneChannel(scheme, workload string, seed, footprint uint64, rounds ...Round) Case {
	return Case{Scheme: scheme, Workload: workload, Seed: seed, Channels: 1,
		Footprint: footprint, Sched: Schedule{Rounds: rounds}}
}

// sweepCrashPoints crashes the Steins variants at the n-th event of one
// class for every n up to max: one single-round case per point. A point
// never reached classifies skipped-crash; a committed one must recover and
// read back intact, with the persisted metadata passing the deep oracle.
// At least min of the points must really commit, so the sweep cannot pass
// vacuously. Recovery-step sweeps crash at the window midpoint and abort
// the recovery pass at its n-th step; recovery must then succeed from that
// arbitrary prefix.
func sweepCrashPoints(t *testing.T, ev memctrl.Event, workload string, max, min int) {
	for _, scheme := range []string{"Steins-GC", "Steins-SC"} {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			reached := 0
			for n := 1; n <= max; n++ {
				rd := Round{Ops: 250, Crash: true, CrashEv: uint8(ev), CrashN: uint32(n)}
				if ev == memctrl.EvRecoveryStep {
					rd.CrashEv, rd.CrashN = uint8(memctrl.EvOpRetired), 125
					rd.Recrash, rd.RecrashStep = true, uint32(n)
				}
				res, r := runCase(oneChannel(scheme, workload, uint64(n), 512<<10, rd))
				switch {
				case res.Verdict == SkippedCrash && ev != memctrl.EvRecoveryStep:
					continue
				case res.Verdict != Neutralized:
					t.Fatalf("crash at %v #%d: %s %s", ev, n, res.Verdict, res.Detail)
				case r.deepOK == 0:
					t.Fatalf("crash at %v #%d: the deep metadata oracle never ran", ev, n)
				}
				if ev != memctrl.EvRecoveryStep || r.recrashes > 0 {
					reached++
				}
			}
			if reached < min {
				t.Fatalf("only %d/%d crash points at %v were reachable", reached, max, ev)
			}
		})
	}
}

// TestSweepEveryNthWrite crashes at every line write of a queue window.
func TestSweepEveryNthWrite(t *testing.T) {
	sweepCrashPoints(t, memctrl.EvLineWrite, "pers_queue", 40, 35)
}

// TestSweepEveryNthEviction crashes at every metadata-cache eviction of
// the eviction-heavy pers_hash pattern.
func TestSweepEveryNthEviction(t *testing.T) {
	sweepCrashPoints(t, memctrl.EvEviction, "pers_hash", 12, 8)
}

// TestSweepEveryNthRecordAppend crashes at every record append, the commit
// point of Steins' dirty tracking.
func TestSweepEveryNthRecordAppend(t *testing.T) {
	sweepCrashPoints(t, memctrl.EvRecordAppend, "pers_hash", 25, 20)
}

// TestSweepMidRecoveryRecrash aborts recovery at every step in turn.
func TestSweepMidRecoveryRecrash(t *testing.T) {
	sweepCrashPoints(t, memctrl.EvRecoveryStep, "pers_hash", 20, 15)
}

// tortureRounds builds a multi-round schedule that crashes at every
// runtime event class in turn, with small countdowns so most rounds
// commit, and aborts every third recovery mid-flight.
func tortureRounds(n int) []Round {
	rounds := make([]Round, n)
	for i := range rounds {
		rd := Round{Ops: 250, Crash: true, CrashEv: uint8(runtimeCrashEvents[i%len(runtimeCrashEvents)])}
		switch memctrl.Event(rd.CrashEv) {
		case memctrl.EvOpRetired:
			rd.CrashN = uint32(20 + 37*i%200)
		case memctrl.EvLineWrite:
			rd.CrashN = uint32(5 + 13*i%60)
		default:
			rd.CrashN = uint32(1 + i%3)
		}
		if i%3 == 2 {
			rd.Recrash, rd.RecrashStep = true, uint32(1+i/3%3)
		}
		rounds[i] = rd
	}
	return rounds
}

// torture runs one long case per scheme on workload: 24 crash rounds
// cycling through all four runtime event classes, a re-crash in every
// third recovery, full readback and the deep metadata oracle after each.
// A recoverable scheme must neutralize every crash, committing at least
// half of them; the write-back baselines must report that they cannot
// recover. needEviction demands that some crash commit at an eviction.
func torture(t *testing.T, workload string, needEviction bool) {
	const rounds = 24
	for _, scheme := range DefaultSchemes() {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			res, r := runCase(oneChannel(scheme, workload, 3, 512<<10, tortureRounds(rounds)...))
			want := Neutralized
			if scheme == "WB-GC" || scheme == "WB-SC" {
				want = NoRecovery
			}
			if res.Verdict != want {
				t.Fatalf("verdict %s (%s), want %s", res.Verdict, res.Detail, want)
			}
			if want == NoRecovery {
				return
			}
			total := 0
			for _, n := range r.crashes {
				total += n
			}
			if total < rounds/2 || (needEviction && r.crashes[memctrl.EvEviction] == 0) ||
				r.recrashes == 0 || r.deepOK < total {
				t.Fatalf("%d crashes %v, %d re-crashes, %d deep checks over %d rounds",
					total, r.crashes, r.recrashes, r.deepOK, rounds)
			}
		})
	}
}

// TestTortureAllSchemes tortures every scheme on the persistent queue,
// whose metadata stays mostly cached: op-retired and line-write crashes
// dominate.
func TestTortureAllSchemes(t *testing.T) {
	torture(t, "pers_queue", false)
}

// TestTortureHashWorkload tortures every scheme on the eviction-heavy
// pers_hash, where metadata locality is poor: some crash must land at an
// eviction (a scheme without dirty tracking never reaches a record-append
// point).
func TestTortureHashWorkload(t *testing.T) {
	torture(t, "pers_hash", true)
}

// TestTornDataFlipDetected is the per-scheme torn-window regression: one
// ciphertext bit of a persisted data line flipped at the crash point, and
// nothing else damaged, must be caught by recovery or the read-back, never
// silently accepted.
func TestTornDataFlipDetected(t *testing.T) {
	for _, scheme := range DefaultSchemes() {
		if scheme == "WB-GC" || scheme == "WB-SC" {
			continue // no recovery at all
		}
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			res := RunCase(oneChannel(scheme, "pers_queue", 5, 128<<10,
				Round{Ops: 400, Crash: true, CrashEv: uint8(memctrl.EvOpRetired), CrashN: 300, FlipData: 1}))
			if res.Verdict != DetectedRuntime && res.Verdict != DetectedRecovery {
				t.Fatalf("torn data line classified %s (%s), want a detection", res.Verdict, res.Detail)
			}
		})
	}
}
