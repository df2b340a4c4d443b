// Package schemetest provides a conformance suite that every recovery
// scheme must pass: functional read/write round trips under eviction
// churn, crash-recovery round trips, continued operation after recovery,
// and detection of runtime tampering. Scheme-specific behaviours (what
// exactly each scheme's trust base catches) live in the schemes' own test
// files.
package schemetest

import (
	"encoding/binary"
	"errors"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/rng"
)

// Config returns the small-system configuration the suite runs on: 1 MB of
// data behind a 4 KB metadata cache, so eviction churn is constant.
func Config(split bool) memctrl.Config {
	cfg := memctrl.DefaultConfig(1<<20, split)
	cfg.MetaCacheBytes = 4 << 10
	cfg.MetaCacheWays = 4
	return cfg
}

// Pattern builds a recognisable data block.
func Pattern(addr uint64, v byte) [64]byte {
	var b [64]byte
	binary.LittleEndian.PutUint64(b[:8], addr)
	for i := 8; i < 64; i++ {
		b[i] = v
	}
	return b
}

// Workload drives a deterministic mixed read/write sequence, checking
// every read, and returns the expected final contents.
func Workload(t *testing.T, c *memctrl.Controller, ops int, seed uint64) map[uint64][64]byte {
	t.Helper()
	r := rng.New(seed)
	expect := make(map[uint64][64]byte)
	lines := c.Config().DataBytes / 64
	for i := 0; i < ops; i++ {
		addr := r.Uint64n(lines) * 64
		if r.Bool(0.6) {
			v := Pattern(addr, byte(r.Uint64()))
			if err := c.WriteData(5, addr, v); err != nil {
				t.Fatalf("op %d write %#x: %v", i, addr, err)
			}
			expect[addr] = v
		} else {
			got, err := c.ReadData(5, addr)
			if err != nil {
				t.Fatalf("op %d read %#x: %v", i, addr, err)
			}
			if want, written := expect[addr]; written && got != want {
				t.Fatalf("op %d read %#x: wrong data", i, addr)
			}
		}
	}
	return expect
}

// EditState decodes a scheme's SaveState blob as a T, lets fn edit it and
// re-encodes it, so a test can craft a checkpoint entry by entry.
func EditState[T any](tb testing.TB, blob []byte, fn func(st *T)) []byte {
	tb.Helper()
	var st T
	if err := memctrl.DecodePolicyState(blob, &st); err != nil {
		tb.Fatal(err)
	}
	fn(&st)
	out, err := memctrl.EncodePolicyState(&st)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// VerifyAll reads back every expected block.
func VerifyAll(t *testing.T, c *memctrl.Controller, expect map[uint64][64]byte) {
	t.Helper()
	for addr, want := range expect {
		got, err := c.ReadData(1, addr)
		if err != nil {
			t.Fatalf("verify read %#x: %v", addr, err)
		}
		if got != want {
			t.Fatalf("verify read %#x: wrong data", addr)
		}
	}
}

// RunRoundTrip checks functional correctness under churn, ending with a
// whole-tree consistency audit of the persisted state.
func RunRoundTrip(t *testing.T, factory memctrl.PolicyFactory, split bool) {
	t.Helper()
	c := memctrl.New(Config(split), factory)
	expect := Workload(t, c, 4000, 42)
	VerifyAll(t, c, expect)
	if c.Meta().Stats().DirtyEvictions == 0 {
		t.Fatal("workload caused no dirty evictions; churn missing")
	}
	if err := c.VerifyNVM(); err != nil {
		t.Fatalf("persisted tree inconsistent after churn: %v", err)
	}
}

// RunCrashRecover checks the full crash-recovery round trip, including
// continued operation and a second crash afterwards.
func RunCrashRecover(t *testing.T, factory memctrl.PolicyFactory, split bool) {
	t.Helper()
	c := memctrl.New(Config(split), factory)
	expect := Workload(t, c, 4000, 1234)
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.TimeNS <= 0 || rep.NVMReads == 0 {
		t.Fatalf("implausible recovery report: %+v", rep)
	}
	VerifyAll(t, c, expect)
	expect2 := Workload(t, c, 1500, 77)
	VerifyAll(t, c, expect2)
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	VerifyAll(t, c, expect2)
	if err := c.VerifyNVM(); err != nil {
		t.Fatalf("persisted tree inconsistent after recovery: %v", err)
	}
}

// RunForceAllDirtyRecover checks recovery under the §IV-D assumption that
// every cached node is dirty at the crash.
func RunForceAllDirtyRecover(t *testing.T, factory memctrl.PolicyFactory, split bool) {
	t.Helper()
	c := memctrl.New(Config(split), factory)
	expect := Workload(t, c, 5000, 7)
	c.ForceAllDirty()
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover after ForceAllDirty: %v", err)
	}
	VerifyAll(t, c, expect)
}

// RunRuntimeTamperDetected checks that a runtime read of tampered data
// fails with ErrTamper regardless of scheme.
func RunRuntimeTamperDetected(t *testing.T, factory memctrl.PolicyFactory) {
	t.Helper()
	c := memctrl.New(Config(false), factory)
	if err := c.WriteData(0, 256, Pattern(256, 5)); err != nil {
		t.Fatal(err)
	}
	line := c.Device().Peek(256)
	line[0] ^= 0xff
	c.Device().Poke(256, line)
	if _, err := c.ReadData(0, 256); !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("tampered read error = %v, want ErrTamper", err)
	}
}

// RunRecoveryDetectsDataReplay writes twice, crashes, restores the first
// (ciphertext, tag) pair and expects recovery (or, failing that, the next
// read) to reject it.
func RunRecoveryDetectsDataReplay(t *testing.T, factory memctrl.PolicyFactory) {
	t.Helper()
	c := memctrl.New(Config(false), factory)
	target := uint64(192)
	if err := c.WriteData(1, target, Pattern(target, 1)); err != nil {
		t.Fatal(err)
	}
	oldLine := c.Device().Peek(target)
	oldTag := c.Tag(target)
	if err := c.WriteData(1, target, Pattern(target, 2)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c.Device().Poke(target, oldLine)
	c.SetTag(target, oldTag)
	_, err := c.Recover()
	if err == nil {
		if _, rerr := c.ReadData(0, target); rerr == nil {
			t.Fatal("replayed data accepted by recovery and runtime")
		}
		return
	}
	if !errors.Is(err, memctrl.ErrReplay) && !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("recover after data replay = %v, want integrity error", err)
	}
}

// RunDeterminism checks bit-identical reruns.
func RunDeterminism(t *testing.T, factory memctrl.PolicyFactory, split bool) {
	t.Helper()
	run := func() (uint64, uint64) {
		c := memctrl.New(Config(split), factory)
		Workload(t, c, 3000, 5)
		return c.ExecCycles(), c.Device().Stats().TotalWrites()
	}
	e1, w1 := run()
	e2, w2 := run()
	if e1 != e2 || w1 != w2 {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", e1, w1, e2, w2)
	}
}

// RunSparseCacheRecover crashes a system whose metadata cache is much
// larger than the touched working set, so most cache slots (and their
// per-slot recovery structures) were never used. Regression guard: the
// schemes' trust bases must cover untouched slots consistently.
func RunSparseCacheRecover(t *testing.T, factory memctrl.PolicyFactory, split bool) {
	t.Helper()
	cfg := memctrl.DefaultConfig(1<<20, split)
	cfg.MetaCacheBytes = 128 << 10 // far larger than the touched set
	c := memctrl.New(cfg, factory)
	expect := map[uint64][64]byte{}
	for i := uint64(0); i < 32; i++ {
		addr := i * 64
		v := Pattern(addr, byte(i))
		if err := c.WriteData(5, addr, v); err != nil {
			t.Fatal(err)
		}
		expect[addr] = v
	}
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("sparse-cache recover: %v", err)
	}
	VerifyAll(t, c, expect)
	// And again with everything force-dirtied.
	c.ForceAllDirty()
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("sparse-cache recover (all dirty): %v", err)
	}
	VerifyAll(t, c, expect)
}

// RunTorture interleaves reads, writes, targeted node flushes, crashes and
// recoveries at random for many rounds, holding a full model of expected
// contents. It is the deepest correctness exercise: any lost update, stale
// restore or bookkeeping drift eventually surfaces as a wrong read or a
// false integrity violation.
func RunTorture(t *testing.T, factory memctrl.PolicyFactory, split bool, seed uint64, ops int) {
	t.Helper()
	cfg := Config(split)
	c := memctrl.New(cfg, factory)
	r := rng.New(seed)
	lines := cfg.DataBytes / 64
	expect := make(map[uint64][64]byte)
	for i := 0; i < ops; i++ {
		switch {
		case r.Bool(0.02): // crash + recover
			c.Crash()
			if _, err := c.Recover(); err != nil {
				t.Fatalf("op %d: recover: %v", i, err)
			}
		case r.Bool(0.02): // flush a random resident leaf
			leaf := r.Uint64n(c.Layout().Geo.LevelNodes[0])
			if _, err := c.FlushNode(0, leaf); err != nil {
				t.Fatalf("op %d: flush leaf %d: %v", i, leaf, err)
			}
		case r.Bool(0.55): // write
			addr := r.Uint64n(lines) * 64
			v := Pattern(addr, byte(r.Uint64()))
			if err := c.WriteData(3, addr, v); err != nil {
				t.Fatalf("op %d: write %#x: %v", i, addr, err)
			}
			expect[addr] = v
		default: // read
			addr := r.Uint64n(lines) * 64
			got, err := c.ReadData(3, addr)
			if err != nil {
				t.Fatalf("op %d: read %#x: %v", i, addr, err)
			}
			if want, ok := expect[addr]; ok && got != want {
				t.Fatalf("op %d: read %#x returned stale/wrong data", i, addr)
			}
		}
	}
	VerifyAll(t, c, expect)
}
