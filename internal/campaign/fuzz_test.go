package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/nvmem"
)

// corpusArtifacts are the seed artifacts for FuzzCampaignSchedule: a
// representative spread of the schedule grammar (crashes on every event
// class, recrash, tampers, faults, degraded, sabotage, empty schedule).
// The same set is mirrored on disk under testdata/fuzz.
func corpusArtifacts() []*Artifact {
	return []*Artifact{
		{Case: Case{Scheme: "Steins-GC", Workload: "kv_a_zipf", Seed: 1, Channels: 1,
			Footprint: 64 << 10}},
		{Case: Case{Index: 7, Scheme: "WB-SC", Workload: "pers_queue", Seed: 2, Channels: 2,
			Footprint: 128 << 10,
			Sched:     Schedule{Rounds: []Round{{Ops: 90, Crash: true, CrashEv: 3, CrashN: 11}}}},
			Verdict: NoRecovery, Detail: "recovery is not supported"},
		{Case: Case{Index: 64, Scheme: "Steins-SC", Workload: "kv_d_latest", Seed: 0x76d3a2b1, Channels: 4,
			Footprint: 128 << 10,
			Sched: Schedule{
				Degraded: true,
				Faults: nvmem.FaultConfig{Seed: 5, TransientPerRead: 2e-4,
					DoubleBitFrac: 0.2, TornOnCrash: 0.5},
				Rounds: []Round{
					{Ops: 140, Crash: true, CrashEv: 1, CrashN: 4, Recrash: true,
						RecrashStep: 9, RecrashChan: 3, FlipNodes: 2, FlipData: 1},
					{Ops: 60},
				}}},
			Verdict: DegradedLoss, Detail: "degraded recovery lost 3 lines"},
		{Case: Case{Index: 99, Scheme: "Triad-GC", Workload: "kv_uniform", Seed: 12, Channels: 2,
			Footprint: 128 << 10,
			Sched: Schedule{Rounds: []Round{
				{Ops: 100, Crash: true, CrashEv: 4, CrashN: 2,
					Tampers: []Tamper{{Scenario: 2, TargetIdx: 17}, {Scenario: 6, TargetIdx: 0}}}}}},
			Verdict: DetectedRecovery, Detail: "recovery rejected: HMAC mismatch"},
		{Case: Case{Index: 24, Scheme: "SCUE-SC", Workload: "pers_hash", Seed: 3, Channels: 1,
			Footprint: 128 << 10,
			Sched:     Schedule{Sabotage: true, Rounds: []Round{{Ops: 80}}}},
			Verdict: Fail, Detail: "SILENT CORRUPTION: addr 0x40 differs"},
		// The replay-under-torn-write boundary case (see repro_test.go):
		// a degraded-mode ReplayData strike under torn-crash media that
		// must arbitrate to a replay-shaped quarantine.
		reproReplayUnderTornWrite(),
	}
}

// FuzzCampaignSchedule is the repro-artifact codec contract: the decoder
// never panics on arbitrary bytes, and any input it accepts re-encodes to
// the exact bytes it came from (the codec is canonical), with the decoded
// schedule surviving a second round trip unchanged. This is what lets a
// campaign failure artifact from any source be replayed byte-exactly.
func FuzzCampaignSchedule(f *testing.F) {
	for _, a := range corpusArtifacts() {
		data, err := EncodeArtifact(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("STEINSNP garbage after the magic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		if err != nil {
			return // rejected cleanly: the only other acceptable outcome
		}
		again, err := EncodeArtifact(a)
		if err != nil {
			t.Fatalf("decoded artifact failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("codec not canonical: accepted %d bytes but re-encoded to %d different bytes", len(data), len(again))
		}
		b, err := DecodeArtifact(again)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("second decode diverged from first")
		}
	})
}

// fuzzCase builds the fuzzed case from primitive arguments: a crash at
// the countdown-th event of one runtime class inside a 150-request window
// over 512 KiB (on one channel, the smallest footprint at which every
// scheme's recovery pass has steps to abort), optionally aborting one
// channel's recovery at step recrash (0: no re-crash), under a media-fault
// model (rates in 1e-4, percent and 1e-5 units; torn tears half the
// in-flight writes at a crash), with up to three interior-node and two
// data bit-flips (flips%4 and flips/4%3) and one tamper (0: none, else
// tamperScenarios[tamper-1]). A case that damages anything runs the round
// twice, so the healed or quarantined aftermath meets a second crash.
func fuzzCase(seed uint64, scheme, channels, workload, event uint8, countdown uint16, recrash uint8,
	transient uint16, double, stuck uint8, torn, degraded bool, flips, tamper uint8) Case {
	schemes, workloads := DefaultSchemes(), DefaultWorkloads()
	rd := Round{
		Ops:       150,
		Crash:     true,
		CrashEv:   uint8(runtimeCrashEvents[int(event)%len(runtimeCrashEvents)]),
		CrashN:    uint32(max(countdown, 1)),
		FlipNodes: flips % 4,
		FlipData:  flips / 4 % 3,
	}
	if recrash > 0 {
		rd.Recrash, rd.RecrashStep, rd.RecrashChan = true, uint32(recrash), uint8(seed%8)
	}
	if tamper > 0 {
		rd.Tampers = []Tamper{{
			Scenario:  uint8(tamperScenarios[int(tamper-1)%len(tamperScenarios)]),
			TargetIdx: uint32(seed >> 32),
		}}
	}
	sched := Schedule{
		Degraded: degraded,
		Faults: nvmem.FaultConfig{
			Seed:             seed | 1,
			TransientPerRead: float64(transient%50) / 1e4,
			DoubleBitFrac:    float64(double%101) / 100,
			StuckPerWrite:    float64(stuck%50) / 1e5,
		},
		Rounds: []Round{rd},
	}
	if torn {
		sched.Faults.TornOnCrash = 0.5
	}
	if sched.Faults.Enabled() || rd.FlipNodes > 0 || rd.FlipData > 0 || len(rd.Tampers) > 0 {
		sched.Rounds = append(sched.Rounds, rd)
	}
	return Case{
		Scheme:    schemes[int(scheme)%len(schemes)],
		Workload:  workloads[int(workload)%len(workloads)],
		Seed:      seed,
		Channels:  []int{1, 2, 4}[int(channels)%3],
		Footprint: 512 << 10,
		Sched:     sched,
	}
}

// fuzzRunCase drives single hand-shaped cases through the executor: any
// scheme, channel count and workload, a crash at any runtime event class,
// optional mid-recovery re-crash, media faults, degraded recovery, bit
// flips and tamper. Whatever the arguments, the case must never classify
// as FAIL: every datum reads back to its last-persisted value or fails
// with a structured, explained error. Each corpus file under testdata/fuzz
// is named after the scheme it runs.
func fuzzRunCase(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, scheme, channels, workload, event uint8, countdown uint16,
		recrash uint8, transient uint16, double, stuck uint8, torn, degraded bool, flips, tamper uint8) {
		c := fuzzCase(seed, scheme, channels, workload, event, countdown, recrash,
			transient, double, stuck, torn, degraded, flips, tamper)
		if res := RunCase(c); res.Verdict == Fail {
			t.Fatalf("%s/%s ch=%d seed=%d %+v: %s", c.Scheme, c.Workload, c.Channels, c.Seed, c.Sched, res.Detail)
		}
	})
}

// FuzzRunCase fuzzes cases under media faults, torn crash writes, degraded
// recovery and replay; its corpus holds the media-fault seeds.
func FuzzRunCase(f *testing.F) { fuzzRunCase(f) }

// FuzzRecordReplay fuzzes the same case shape from the crash-point seeds:
// crashes at the n-th record append (the commit point of Steins' dirty
// tracking) and recovery passes aborted at the n-th step, across the
// recoverable scheme families.
func FuzzRecordReplay(f *testing.F) { fuzzRunCase(f) }

// TestRunCaseCrashSeedsCommit keeps the seeds of FuzzRecordReplay
// meaningful: each record-append seed must commit its runtime crash at a
// record append, each recovery-step seed abort its recovery pass at the
// chosen step. A seed whose point lies past the window would pass the fuzz
// target vacuously.
func TestRunCaseCrashSeedsCommit(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRecordReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		recAppend, recStep := strings.HasPrefix(name, "record_append_"), strings.HasPrefix(name, "recovery_step_")
		if !recAppend && !recStep {
			continue
		}
		a, err := readFuzzSeed(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := fuzzCase(a[0], uint8(a[1]), uint8(a[2]), uint8(a[3]), uint8(a[4]), uint16(a[5]), uint8(a[6]),
			uint16(a[7]), uint8(a[8]), uint8(a[9]), a[10] != 0, a[11] != 0, uint8(a[12]), uint8(a[13]))
		res, r := runCase(c)
		switch {
		case res.Verdict == Fail:
			t.Errorf("%s: %s", name, res.Detail)
		case recAppend && r.crashes[memctrl.EvRecordAppend] == 0:
			t.Errorf("%s: no crash committed at a record append (%s)", name, res.Verdict)
		case recStep && r.recrashes == 0:
			t.Errorf("%s: recovery was never aborted mid-flight (%s)", name, res.Verdict)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no record-append or recovery-step seeds found")
	}
}

// readFuzzSeed parses one "go test fuzz v1" corpus file of unsigned
// integer and bool values (true reads as 1).
func readFuzzSeed(path string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a fuzz corpus file")
	}
	var vals []uint64
	for _, l := range lines[1:] {
		open, close := strings.IndexByte(l, '('), strings.LastIndexByte(l, ')')
		if open < 0 || close < open {
			return nil, fmt.Errorf("malformed value %q", l)
		}
		arg := l[open+1 : close]
		switch arg {
		case "true":
			vals = append(vals, 1)
		case "false":
			vals = append(vals, 0)
		default:
			v, err := strconv.ParseUint(arg, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("malformed value %q: %w", l, err)
			}
			vals = append(vals, v)
		}
	}
	if len(vals) != 14 {
		return nil, fmt.Errorf("%d values, want 14", len(vals))
	}
	return vals, nil
}
