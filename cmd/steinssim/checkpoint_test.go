package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tableOf strips everything before the first table ("== title =="), so
// resumed output can be compared to straight output without the resume or
// checkpoint banners.
func tableOf(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "== ")
	if i < 0 {
		t.Fatalf("no table in output:\n%s", out)
	}
	return out[i:]
}

// TestCheckpointResumeMatchesStraight runs the same configuration three
// ways — straight, checkpointed, and checkpoint-then-resume — and
// requires identical summary tables: the resumed run's metrics must be
// bit-identical to the uninterrupted run's.
func TestCheckpointResumeMatchesStraight(t *testing.T) {
	for _, channels := range []string{"1", "2"} {
		channels := channels
		t.Run(channels+"ch", func(t *testing.T) {
			t.Parallel()
			snap := filepath.Join(t.TempDir(), "run.snap")
			base := []string{
				"-workload", "pers_queue", "-scheme", "steins-sc",
				"-ops", "2000", "-cache", "16", "-seed", "3",
				"-channels", channels,
				"-faults", "transient=1e-3,stuck=1e-4,seed=9",
			}

			var straight, errb strings.Builder
			if code := run(base, &straight, &errb); code != 0 {
				t.Fatalf("straight: exit %d, stderr: %s", code, errb.String())
			}

			// Checkpoint every 700 ops: the final snapshot on disk is from
			// the last boundary before exhaustion, so -resume has a real
			// remainder to drive.
			var ck strings.Builder
			errb.Reset()
			ckArgs := append(append([]string{}, base...), "-checkpoint", "700", "-checkpoint-file", snap)
			if code := run(ckArgs, &ck, &errb); code != 0 {
				t.Fatalf("checkpointed: exit %d, stderr: %s", code, errb.String())
			}
			if tableOf(t, ck.String()) != tableOf(t, straight.String()) {
				t.Fatalf("checkpointing changed the results\nstraight:\n%s\ncheckpointed:\n%s",
					straight.String(), ck.String())
			}
			if _, err := os.Stat(snap); err != nil {
				t.Fatalf("no snapshot written: %v", err)
			}

			var resumed strings.Builder
			errb.Reset()
			if code := run([]string{"-resume", snap}, &resumed, &errb); code != 0 {
				t.Fatalf("resume: exit %d, stderr: %s", code, errb.String())
			}
			if !strings.Contains(resumed.String(), "resumed pers_queue/Steins-SC at op") {
				t.Fatalf("missing resume banner:\n%s", resumed.String())
			}
			if tableOf(t, resumed.String()) != tableOf(t, straight.String()) {
				t.Fatalf("resumed run diverges from straight run\nstraight:\n%s\nresumed:\n%s",
					straight.String(), resumed.String())
			}
		})
	}
}

// withoutLine drops every line of out that starts with prefix.
func withoutLine(out, prefix string) string {
	var keep []string
	for _, l := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(l, prefix) {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "")
}

// TestCheckpointResumeCrashReport pins the crash report: a plain -crash
// run, the same run with -checkpoint, and a -resume -crash of its final
// checkpoint must print the same recovery line and tables (apart from the
// checkpoint and resume banners). The results are collected before the
// crash on every path; collecting them after recovery would count the
// recovery's own NVM traffic and energy. The checkpoint records degraded
// mode, so a -degraded run under media faults resumes (without the flag)
// into the same degraded recovery and quarantine table.
func TestCheckpointResumeCrashReport(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		extra []string
		want  string // a further line the plain run's report must contain
	}{
		{"1ch", []string{"-channels", "1"}, ""},
		{"2ch", []string{"-channels", "2"}, ""},
		{"degraded", []string{"-degraded",
			"-faults", "transient=1e-2,double=0.5,stuck=1e-3,torn=0.5,seed=3"}, "\ndegraded: "},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			snap := filepath.Join(t.TempDir(), "run.snap")
			base := append([]string{
				"-workload", "pers_queue", "-scheme", "steins-sc",
				"-ops", "20000", "-crash", "-alldirty",
			}, cfg.extra...)
			outputs := map[string]string{}
			for _, tc := range []struct {
				name   string
				args   []string
				banner string
			}{
				{"plain", base, ""},
				{"checkpointed", append(append([]string{}, base...), "-checkpoint", "7000", "-checkpoint-file", snap), "checkpoints written "},
				{"resumed", []string{"-resume", snap, "-crash", "-alldirty"}, "resumed "},
			} {
				var out, errb strings.Builder
				if code := run(tc.args, &out, &errb); code != 0 {
					t.Fatalf("%s: exit %d, stderr: %s", tc.name, code, errb.String())
				}
				got := out.String()
				if tc.banner != "" {
					if !strings.Contains(got, tc.banner) {
						t.Fatalf("%s: missing %q banner:\n%s", tc.name, tc.banner, got)
					}
					got = withoutLine(got, tc.banner)
				}
				if !strings.HasPrefix(got, "recovery: ") {
					t.Fatalf("%s: no recovery report first:\n%s", tc.name, got)
				}
				outputs[tc.name] = got
			}
			if !strings.Contains(outputs["plain"], cfg.want) {
				t.Fatalf("plain run reports no %q:\n%s", cfg.want, outputs["plain"])
			}
			for _, name := range []string{"checkpointed", "resumed"} {
				if outputs[name] != outputs["plain"] {
					t.Fatalf("%s crash report diverges from the plain run\nplain:\n%s\n%s:\n%s",
						name, outputs["plain"], name, outputs[name])
				}
			}
		})
	}
}

// TestResumeFailures is the negative CLI table: a missing, truncated or
// corrupted snapshot must exit 1 with a structured diagnostic on stderr,
// and -resume -compare is a flag error.
func TestResumeFailures(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "run.snap")
	var out, errb strings.Builder
	if code := run([]string{
		"-workload", "pers_queue", "-scheme", "steins-gc",
		"-ops", "800", "-cache", "16", "-checkpoint", "300", "-checkpoint-file", snap,
	}, &out, &errb); code != 0 {
		t.Fatalf("seed run: exit %d, stderr: %s", code, errb.String())
	}
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	truncated := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(truncated, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flip.snap")
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(flipped, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path, diag string
	}{
		{"missing file", filepath.Join(dir, "nope.snap"), "no such file"},
		{"truncated", truncated, "truncated"},
		{"bit flip", flipped, "checksum"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run([]string{"-resume", tc.path}, &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.diag) {
				t.Fatalf("diagnostic %q missing from stderr: %s", tc.diag, errb.String())
			}
		})
	}

	errb.Reset()
	if code := run([]string{"-resume", snap, "-compare"}, &out, &errb); code != 2 {
		t.Fatalf("-resume -compare: exit %d, want 2 (stderr: %s)", code, errb.String())
	}
}

// TestResumeCacheTreeCheckpoints pins checkpoint compatibility of the
// ASIT and STAR cache-trees: layout-6 run checkpoints written by the
// build whose schemes kept their cache-trees inline (STAR's leaf level
// then held zeros beside its set-MACs) resume, crash and recover to that
// build's straight output byte for byte. Both were taken after op 590 of
// `-workload pers_queue -scheme ASIT|STAR -ops 600 -cache 16 -seed 5`;
// the .txt files are that build's output of the same flags with -crash.
func TestResumeCacheTreeCheckpoints(t *testing.T) {
	for _, scheme := range []string{"asit", "star"} {
		t.Run(scheme, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", scheme+"-layout6-run.snap"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", scheme+"-straight.txt"))
			if err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(t.TempDir(), "run.snap")
			if err := os.WriteFile(snap, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errb strings.Builder
			if code := run([]string{"-resume", snap, "-crash"}, &out, &errb); code != 0 {
				t.Fatalf("resume: exit %d, stderr: %s", code, errb.String())
			}
			got := out.String()
			if !strings.Contains(got, "resumed pers_queue/") || !strings.Contains(got, " at op 590 of 600 ") {
				t.Fatalf("no mid-run resume banner:\n%s", got)
			}
			if got = withoutLine(got, "resumed "); got != string(want) {
				t.Fatalf("resumed output diverges from the straight run\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}
