package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"steins/internal/nvmem"
)

// testConfig keeps unit-test campaigns cheap: one third of the full sweep
// per axis still covers every scheme×channel cell at 108 cases.
func testConfig(cases int) Config {
	return Config{Cases: cases, Seed: 7, SelfCheckEvery: 25}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := Run(testConfig(108))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(108))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different reports:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if n := a.SilentCorruptions(); n != 0 {
		t.Fatalf("campaign reported %d silent corruptions:\n%s", n, a)
	}
	if a.Selfcheck.Run == 0 {
		t.Fatal("no selfcheck cases ran")
	}
}

func TestCampaignCheckpointResume(t *testing.T) {
	cfg := testConfig(90)
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: execute the first 36 cases, checkpoint, reload, and
	// resume to the full target. The resumed report must be byte-identical.
	partialCfg := cfg
	partialCfg.Cases = 36
	partial, err := Run(partialCfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.snap")
	fullCfg := cfg
	fullCfg.setDefaults()
	if err := SaveCheckpoint(path, &fullCfg, partial); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.String(), straight.String(); got != want {
		t.Fatalf("resumed report differs from straight run:\n--- resumed ---\n%s--- straight ---\n%s", got, want)
	}
}

func TestCheckpointRejectsWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.snap")
	cfg := testConfig(10)
	cfg.setDefaults()
	rep := &Report{Seed: cfg.Seed, Cases: 0}
	if err := SaveCheckpoint(path, &cfg, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("reload: %v", err)
	}
}

// TestSaveCheckpointAtomicReplace pins that the campaign saver shares the
// snapshot package's durable atomic writer: an overwrite leaves only the
// newer checkpoint (mode 0644, no temp droppings), and a save into a
// missing directory fails without touching the previous checkpoint.
func TestSaveCheckpointAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.snap")
	cfg := testConfig(10)
	cfg.setDefaults()
	for done := 0; done < 2; done++ {
		if err := SaveCheckpoint(path, &cfg, &Report{Seed: cfg.Seed, Cases: done}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after saves, want 1", len(entries))
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("stat = (%v, %v), want mode 0644", info, err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := LoadCheckpoint(path); err != nil || st.Report.Cases != 1 {
		t.Fatalf("reload = (%v, %v), want the second checkpoint", st, err)
	}
	if err := SaveCheckpoint(filepath.Join(dir, "missing", "campaign.snap"), &cfg, &Report{}); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("failed save modified the existing checkpoint (err %v)", err)
	}
}

func TestSelfCheckEndToEnd(t *testing.T) {
	art, err := SelfCheck(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if art.Verdict != Fail {
		t.Fatalf("selfcheck verdict %s", art.Verdict)
	}
	data, err := EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, back) {
		t.Fatalf("artifact round trip diverged:\n%+v\nvs\n%+v", art, back)
	}
	if res, ok := Replay(back); !ok {
		t.Fatalf("replayed verdict %s, want %s", res.Verdict, back.Verdict)
	}
}

func TestArtifactCodecCanonical(t *testing.T) {
	a := &Artifact{
		Case: Case{
			Index: 123, Scheme: "Steins-SC", Workload: "kv_d_latest",
			Seed: 0xdeadbeefcafef00d, Channels: 4, Footprint: 128 << 10,
			Sched: Schedule{
				Degraded: true,
				Faults:   nvmem.FaultConfig{Seed: 9, TransientPerRead: 1e-4, TornOnCrash: 0.5},
				Rounds: []Round{
					{Ops: 77, Crash: true, CrashEv: 1, CrashN: 3, Recrash: true,
						RecrashStep: 5, RecrashChan: 2, FlipNodes: 1,
						Tampers: []Tamper{{Scenario: 2, TargetIdx: 9}, {Scenario: 5, TargetIdx: 0}}},
					{Ops: 10},
				},
			},
		},
		Verdict: Fail,
		Detail:  "SILENT CORRUPTION: test",
	}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("decode(encode(a)) != a:\n%+v\nvs\n%+v", a, back)
	}
	again, err := EncodeArtifact(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encode(decode(bytes)) != bytes — codec not canonical")
	}
}

func TestArtifactDecodeNeverPanics(t *testing.T) {
	a := &Artifact{Case: Case{Scheme: "ASIT", Workload: "kv_a_zipf", Seed: 3,
		Channels: 2, Footprint: 64 << 10,
		Sched: Schedule{Rounds: []Round{{Ops: 5, Crash: true, CrashEv: 3, CrashN: 1}}}}}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error cleanly.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeArtifact(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Every single-byte corruption must error or decode — never panic.
	// (The CRC catches payload flips; header flips hit the sentinels.)
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		_, _ = DecodeArtifact(mut)
	}
	if _, err := DecodeArtifact(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestMinimizePreservesFailure(t *testing.T) {
	// A sabotage case fails by construction; minimization must return a
	// case that still fails and is no larger than the original.
	cfg := testConfig(1)
	cfg.SelfCheckEvery = 1
	c := GenCase(&cfg, 0)
	if RunCase(c).Verdict != Fail {
		t.Fatal("sabotage case did not fail")
	}
	min := Minimize(c, 30)
	if RunCase(min).Verdict != Fail {
		t.Fatal("minimized case no longer fails")
	}
	if len(min.Sched.Rounds) > len(c.Sched.Rounds) {
		t.Fatalf("minimization grew the schedule: %d -> %d rounds",
			len(c.Sched.Rounds), len(min.Sched.Rounds))
	}
}

func TestRunCaseDeterministic(t *testing.T) {
	// A tamper-heavy strict-mode case replays to the identical
	// classification, detail string included.
	c := Case{
		Index: 1, Scheme: "Steins-GC", Workload: "pers_hash", Seed: 41,
		Channels: 2, Footprint: 128 << 10,
		Sched: Schedule{Rounds: []Round{
			{Ops: 120, Crash: true, CrashEv: 3, CrashN: 60, Recrash: true,
				RecrashStep: 3, RecrashChan: 1,
				Tampers: []Tamper{{Scenario: 2, TargetIdx: 11}}},
		}},
	}
	a := RunCase(c)
	b := RunCase(c)
	if a != b {
		t.Fatalf("case replay diverged: %+v vs %+v", a, b)
	}
}

func TestWBClassifiesNoRecovery(t *testing.T) {
	c := Case{
		Scheme: "WB-GC", Workload: "kv_uniform", Seed: 5, Channels: 1,
		Footprint: 64 << 10,
		Sched: Schedule{Rounds: []Round{
			{Ops: 50, Crash: true, CrashEv: 3, CrashN: 10},
		}},
	}
	res := RunCase(c)
	if res.Verdict != NoRecovery {
		t.Fatalf("WB crash case classified %s, want %s", res.Verdict, NoRecovery)
	}
}

func TestRoutingUnevenFootprints(t *testing.T) {
	// Channel routing must be total and alias-free whether or not the
	// footprint fills whole interleave pages on every channel: a wrong
	// local address or an undersized channel surfaces as a Fail in the
	// final shadow readback, so every case must read back intact. One
	// channel keeps any 64 B-multiple footprint.
	for _, fp := range []uint64{128 << 10, 3*4096 + 64, 5*4096 + 192} {
		for _, ch := range []int{1, 2, 3, 4} {
			c := Case{
				Scheme: "Steins-SC", Workload: "kv_uniform", Seed: fp + uint64(ch),
				Channels: ch, Footprint: fp,
				Sched: Schedule{Rounds: []Round{
					{Ops: 300, Crash: true, CrashEv: 0, CrashN: 150},
					{Ops: 200},
				}},
			}
			if res := RunCase(c); res.Verdict != Clean && res.Verdict != Neutralized && res.Verdict != SkippedCrash {
				t.Fatalf("%d B over %d channels: %s %s", fp, ch, res.Verdict, res.Detail)
			}
		}
	}
}
