package steins_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"steins/internal/crypt"
	"steins/internal/memctrl"
	"steins/internal/rng"
	"steins/internal/scheme/schemetest"
	"steins/internal/scheme/steins"
)

func testConfig(split bool) memctrl.Config {
	cfg := memctrl.DefaultConfig(1<<20, split)
	cfg.MetaCacheBytes = 4 << 10
	cfg.MetaCacheWays = 4
	return cfg
}

func newSteins(t *testing.T, split bool) (*memctrl.Controller, *steins.Policy) {
	t.Helper()
	c := memctrl.New(testConfig(split), steins.Factory)
	return c, c.Policy().(*steins.Policy)
}

func pattern(addr uint64, v byte) [64]byte {
	var b [64]byte
	binary.LittleEndian.PutUint64(b[:8], addr)
	for i := 8; i < 64; i++ {
		b[i] = v
	}
	return b
}

// workload drives a deterministic mixed read/write sequence and returns
// the data each address should hold.
func workload(t *testing.T, c *memctrl.Controller, ops int, seed uint64) map[uint64][64]byte {
	t.Helper()
	r := rng.New(seed)
	expect := make(map[uint64][64]byte)
	lines := c.Config().DataBytes / 64
	for i := 0; i < ops; i++ {
		addr := r.Uint64n(lines) * 64
		if r.Bool(0.6) {
			v := pattern(addr, byte(r.Uint64()))
			if err := c.WriteData(5, addr, v); err != nil {
				t.Fatalf("op %d write %#x: %v", i, addr, err)
			}
			expect[addr] = v
		} else {
			got, err := c.ReadData(5, addr)
			if err != nil {
				t.Fatalf("op %d read %#x: %v", i, addr, err)
			}
			want, written := expect[addr]
			if written && got != want {
				t.Fatalf("op %d read %#x: wrong data", i, addr)
			}
		}
	}
	return expect
}

func verifyAll(t *testing.T, c *memctrl.Controller, expect map[uint64][64]byte) {
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

func TestRuntimeRoundTripGCAndSC(t *testing.T) {
	for _, split := range []bool{false, true} {
		c, p := newSteins(t, split)
		expect := workload(t, c, 4000, 42)
		verifyAll(t, c, expect)
		if err := p.InvariantError(); err != nil {
			t.Fatalf("split=%v: %v", split, err)
		}
	}
}

func TestLIncInvariantHoldsThroughChurn(t *testing.T) {
	// The conservation law of §III-E, checked repeatedly during heavy
	// eviction churn with buffered parent updates in flight.
	c, p := newSteins(t, false)
	r := rng.New(7)
	lines := c.Config().DataBytes / 64
	for i := 0; i < 6000; i++ {
		addr := r.Uint64n(lines) * 64
		if r.Bool(0.7) {
			if err := c.WriteData(3, addr, pattern(addr, byte(i))); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.ReadData(3, addr); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if err := p.InvariantError(); err != nil {
				t.Fatalf("after op %d: %v", i, err)
			}
		}
	}
	if err := p.InvariantError(); err != nil {
		t.Fatal(err)
	}
}

func TestNVBufferExercised(t *testing.T) {
	c, p := newSteins(t, false)
	r := rng.New(9)
	lines := c.Config().DataBytes / 64
	sawBuffered := false
	for i := 0; i < 5000; i++ {
		addr := r.Uint64n(lines) * 64
		if err := c.WriteData(2, addr, pattern(addr, byte(i))); err != nil {
			t.Fatal(err)
		}
		if p.BufferedEntries() > 0 {
			sawBuffered = true
		}
	}
	if !sawBuffered {
		t.Fatal("non-volatile buffer never used; write path not exercising deferred parent updates")
	}
	// A read drains the buffer before its verification (§III-E step ④);
	// the read's own fetch may evict and re-buffer, so read the same
	// (now cached) address twice — the second read evicts nothing and
	// must leave the buffer fully drained.
	if _, err := c.ReadData(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadData(2, 0); err != nil {
		t.Fatal(err)
	}
	if p.BufferedEntries() != 0 {
		t.Fatalf("buffer not drained by read: %d entries", p.BufferedEntries())
	}
	if err := p.InvariantError(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverRoundTrip(t *testing.T) {
	for _, split := range []bool{false, true} {
		c, _ := newSteins(t, split)
		expect := workload(t, c, 4000, 1234)
		c.Crash()
		rep, err := c.Recover()
		if err != nil {
			t.Fatalf("split=%v recover: %v", split, err)
		}
		if rep.NodesRecovered == 0 {
			t.Fatalf("split=%v: nothing recovered after dirty workload", split)
		}
		if rep.NVMReads == 0 || rep.TimeNS <= 0 {
			t.Fatalf("split=%v: empty recovery report %+v", split, rep)
		}
		verifyAll(t, c, expect)
		// The system keeps operating: more writes, reads, another crash.
		expect2 := workload(t, c, 1000, 99)
		verifyAll(t, c, expect2)
	}
}

// TestSplitRecoveryReportPinned pins the recovery report of one
// deterministic Steins-SC crash. NVM reads and MAC evaluations are the
// inputs of the modelled recovery time, so host-side work on the
// recovery path (the counter search, scratch reused across leaves) must
// leave them exactly as they were; a block searched twice, or a search
// that counts its tries differently, moves MACOps.
func TestSplitRecoveryReportPinned(t *testing.T) {
	c, _ := newSteins(t, true)
	workload(t, c, 4000, 1234)
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesRecovered != 60 || rep.NVMReads != 2596 || rep.MACOps != 962 || rep.TimeNS != 278840 {
		t.Fatalf("recovery report = %d nodes, %d NVM reads, %d MACs, %v ns; want 60, 2596, 962, 278840",
			rep.NodesRecovered, rep.NVMReads, rep.MACOps, rep.TimeNS)
	}
}

func TestRecoverWithPendingBuffer(t *testing.T) {
	// Crash with entries still parked in the non-volatile buffer: recovery
	// must fold them into the LIncs (§III-G step ⑤).
	c, p := newSteins(t, false)
	expect := workload(t, c, 3000, 5)
	if p.BufferedEntries() == 0 {
		// Force buffered state: keep writing until an eviction defers.
		r := rng.New(11)
		lines := c.Config().DataBytes / 64
		for i := 0; i < 10000 && p.BufferedEntries() == 0; i++ {
			addr := r.Uint64n(lines) * 64
			if err := c.WriteData(2, addr, pattern(addr, byte(i))); err != nil {
				t.Fatal(err)
			}
			expect[addr] = pattern(addr, byte(i))
		}
	}
	if p.BufferedEntries() == 0 {
		t.Skip("could not produce a pending buffer entry")
	}
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover with pending buffer: %v", err)
	}
	verifyAll(t, c, expect)
}

func TestDoubleCrashRecover(t *testing.T) {
	c, _ := newSteins(t, false)
	expect := workload(t, c, 3000, 21)
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("first recover: %v", err)
	}
	// Immediately crash again: recovered nodes are dirty in cache, so the
	// second recovery must regenerate them identically.
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	verifyAll(t, c, expect)
}

func TestRecoverIdleSystem(t *testing.T) {
	// No dirty metadata: recovery compares every LInc with zero and
	// succeeds trivially (§III-G).
	c, _ := newSteins(t, false)
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("idle recover: %v", err)
	}
	if rep.NodesRecovered != 0 {
		t.Fatalf("idle recovery recovered %d nodes", rep.NodesRecovered)
	}
}

func TestRecoverAfterCleanShutdownEquivalent(t *testing.T) {
	// Write, read everything back (drains buffer), crash, recover: tracked
	// nodes may be stale-clean, which must recover as no-ops.
	c, _ := newSteins(t, false)
	expect := workload(t, c, 2000, 31)
	verifyAll(t, c, expect)
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	verifyAll(t, c, expect)
}

func TestForceAllDirtyRecover(t *testing.T) {
	// The §IV-D evaluation assumption: every cached node dirty at crash.
	for _, split := range []bool{false, true} {
		c, p := newSteins(t, split)
		expect := workload(t, c, 5000, 77)
		c.ForceAllDirty()
		if err := p.InvariantError(); err != nil {
			t.Fatalf("split=%v after ForceAllDirty: %v", split, err)
		}
		c.Crash()
		rep, err := c.Recover()
		if err != nil {
			t.Fatalf("split=%v recover: %v", split, err)
		}
		if rep.NodesRecovered < uint64(c.Meta().Capacity()/2) {
			t.Fatalf("split=%v: only %d nodes recovered with a force-dirtied cache",
				split, rep.NodesRecovered)
		}
		verifyAll(t, c, expect)
	}
}

func TestRecoveryTimeScalesWithLeafCover(t *testing.T) {
	// §IV-D: split leaves need 64 data reads per leaf vs 8, so Steins-SC
	// recovery is several times slower than Steins-GC at equal dirty sets.
	times := map[bool]float64{}
	for _, split := range []bool{false, true} {
		c, _ := newSteins(t, split)
		workload(t, c, 5000, 13)
		c.ForceAllDirty()
		c.Crash()
		rep, err := c.Recover()
		if err != nil {
			t.Fatal(err)
		}
		times[split] = rep.TimeNS / float64(rep.NodesRecovered)
	}
	if times[true] < times[false]*2 {
		t.Fatalf("per-node recovery: SC %.0f ns not >> GC %.0f ns", times[true], times[false])
	}
}

// --- attack detection during recovery ---------------------------------------

// setupCrashed returns a crashed system with a dirty working set.
func setupCrashed(t *testing.T, split bool) (*memctrl.Controller, map[uint64][64]byte) {
	t.Helper()
	c, _ := newSteins(t, split)
	expect := workload(t, c, 4000, 321)
	c.Crash()
	return c, expect
}

func TestRecoveryDetectsTamperedChildNode(t *testing.T) {
	c, _ := setupCrashed(t, false)
	// Corrupt a populated leaf node (a child used to regenerate level 1).
	lay := c.Layout()
	for idx := uint64(0); idx < lay.Geo.LevelNodes[0]; idx++ {
		addr := lay.Geo.NodeAddr(0, idx)
		line := c.Device().Peek(addr)
		if line == ([64]byte{}) {
			continue
		}
		line[10] ^= 0x40
		c.Device().Poke(addr, line)
		break
	}
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrTamper) && !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover after node tamper = %v, want integrity error", err)
	}
}

func TestRecoveryDetectsTamperedData(t *testing.T) {
	c, expect := setupCrashed(t, false)
	var target uint64
	for addr := range expect {
		target = addr
		break
	}
	line := c.Device().Peek(target)
	line[0] ^= 1
	c.Device().Poke(target, line)
	_, err := c.Recover()
	if err == nil {
		// The tampered block's leaf may not be in the dirty set; then
		// recovery succeeds but the runtime read must catch it.
		if _, rerr := c.ReadData(0, target); !errors.Is(rerr, memctrl.ErrTamper) {
			t.Fatalf("tampered data escaped both recovery and runtime: %v", rerr)
		}
		return
	}
	if !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("recover after data tamper = %v, want ErrTamper", err)
	}
}

func TestRecoveryDetectsReplayedData(t *testing.T) {
	// Replay: save a block's (ciphertext, tag), write newer data, crash,
	// restore the old pair. The recovered counter is smaller, so the
	// level-0 increment falls short of L0Inc (§III-H).
	c, p := newSteins(t, false)
	target := uint64(64 * 3)
	if err := c.WriteData(1, target, pattern(target, 1)); err != nil {
		t.Fatal(err)
	}
	oldLine := c.Device().Peek(target)
	oldTag := c.Tag(target)
	if err := c.WriteData(1, target, pattern(target, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.InvariantError(); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c.Device().Poke(target, oldLine)
	c.SetTag(target, oldTag)
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover after data replay = %v, want ErrReplay", err)
	}
}

func TestRecoveryDetectsReplayedNode(t *testing.T) {
	// Replay a whole persisted leaf node with an authentic OLD flushed
	// version: its HMAC is self-consistent (made with its own generated
	// counter), but the parent holds the newer generated counter and the
	// recovered-vs-stale increments no longer match the LIncs (§III-D).
	c, _ := newSteins(t, false)
	lay := c.Layout()
	leafAddr := lay.Geo.NodeAddr(0, 0)

	// Epoch 1: write, flush leaf 0, drain the parent update via a read.
	if err := c.WriteData(1, 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlushNode(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadData(1, 0); err != nil {
		t.Fatal(err)
	}
	epoch1 := c.Device().Peek(leafAddr)
	if epoch1 == ([64]byte{}) {
		t.Fatal("epoch-1 flush left no node image")
	}

	// Epoch 2: newer writes under the same leaf, flushed again.
	if err := c.WriteData(1, 64, pattern(64, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlushNode(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadData(1, 64); err != nil {
		t.Fatal(err)
	}

	// Epoch 3 pending: dirty the leaf again and crash.
	if err := c.WriteData(1, 128, pattern(128, 3)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c.Device().Poke(leafAddr, epoch1) // replay the stale base
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) && !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("recover after node replay = %v, want integrity error", err)
	}
}

func TestRecoveryDetectsErasedRecords(t *testing.T) {
	// §III-H: marking dirty nodes as clean (zeroing records) leaves the
	// level increment short of the LInc.
	c, _ := setupCrashed(t, false)
	lay := c.Layout()
	for li := uint64(0); li < lay.RecordLines(); li++ {
		c.Device().Poke(lay.RecordBase+li*64, [64]byte{})
	}
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover with erased records = %v, want ErrReplay", err)
	}
}

func TestRecoveryToleratesSpuriousRecords(t *testing.T) {
	// §III-H: marking CLEAN nodes as dirty must not break recovery — the
	// spurious nodes contribute zero increment.
	c, _ := newSteins(t, false)
	expect := workload(t, c, 3000, 55)
	c.Crash()
	lay := c.Layout()
	// Append records for clean nodes into empty record slots.
	line := c.Device().Peek(lay.RecordBase)
	spurious := 0
	for pos := 0; pos < memctrl.RecordEntriesPerLine && spurious < 3; pos++ {
		v := binary.LittleEndian.Uint32(line[pos*4:])
		if v == 0 {
			// Mark top-level node 0 (certainly not dirty-tracked there).
			off := lay.Geo.Offset(lay.Geo.Levels-1, 0) + 1
			binary.LittleEndian.PutUint32(line[pos*4:], off)
			spurious++
		}
	}
	if spurious == 0 {
		t.Skip("no empty record slot to poison")
	}
	c.Device().Poke(lay.RecordBase, line)
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover with spurious clean records: %v", err)
	}
	verifyAll(t, c, expect)
}

func TestRecoveryDetectsGarbageRecords(t *testing.T) {
	// Records holding out-of-range offsets are ignored; if they displaced
	// real entries the LInc check fires — either way no false acceptance.
	c, _ := setupCrashed(t, false)
	lay := c.Layout()
	var bad [64]byte
	for i := 0; i < 64; i += 4 {
		binary.LittleEndian.PutUint32(bad[i:], 0xFFFFFF00)
	}
	for li := uint64(0); li < lay.RecordLines(); li++ {
		c.Device().Poke(lay.RecordBase+li*64, bad)
	}
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover with garbage records = %v, want ErrReplay", err)
	}
}

func TestStorageOverheadSteins(t *testing.T) {
	c, p := newSteins(t, false)
	s := p.Storage()
	lay := c.Layout()
	if s.TreeBytes != lay.Geo.MetaBytes {
		t.Fatalf("tree bytes %d", s.TreeBytes)
	}
	// §III-C: 16 KB record region per 256 KB cache => cache/16.
	if s.NVMExtraBytes != uint64(c.Config().MetaCacheBytes)/16 {
		t.Fatalf("record region %d, want cache/16 = %d", s.NVMExtraBytes, c.Config().MetaCacheBytes/16)
	}
	if s.OnChipNVBytes != 64+128 {
		t.Fatalf("on-chip NV %d, want 192 (LIncs + buffer)", s.OnChipNVBytes)
	}
	if s.CacheTaxBytes != 0 {
		t.Fatal("Steins must not tax the metadata cache")
	}
}

func TestSparseCacheRecover(t *testing.T) {
	schemetest.RunSparseCacheRecover(t, steins.Factory, false)
	schemetest.RunSparseCacheRecover(t, steins.Factory, true)
}

func TestRealCryptoPipeline(t *testing.T) {
	// The full stack under the paper's actual primitives — AES-CTR OTPs
	// and HMAC-SHA-256 — instead of the fast simulation crypto: round
	// trip, crash recovery, and tamper detection must behave identically.
	cfg := testConfig(true)
	cfg.MAC = crypt.HMACSHA256{}
	cfg.OTP = crypt.AESPad{}
	c := memctrl.New(cfg, steins.Factory)
	r := rng.New(4)
	lines := cfg.DataBytes / 64
	expect := map[uint64][64]byte{}
	for i := 0; i < 1500; i++ {
		addr := r.Uint64n(lines) * 64
		v := pattern(addr, byte(i))
		if err := c.WriteData(5, addr, v); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		expect[addr] = v
	}
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	verifyAll(t, c, expect)
	var target uint64
	for a := range expect {
		target = a
		break
	}
	line := c.Device().Peek(target)
	line[9] ^= 2
	c.Device().Poke(target, line)
	if _, err := c.ReadData(0, target); !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("tamper under real crypto = %v, want ErrTamper", err)
	}
}

func TestWriteThroughKeepsHotLineRecoverable(t *testing.T) {
	// §II-D: without the write-through guard, a block written more times
	// than the recovery hint window (2^16 for general leaves) between
	// flushes could not be recovered. Hammer one block past the window
	// with a tiny threshold and verify crash recovery still works.
	cfg := testConfig(false)
	cfg.WriteThroughEvery = 500
	c := memctrl.New(cfg, steins.Factory)
	p := c.Policy().(*steins.Policy)
	for i := 0; i < 2500; i++ {
		if err := c.WriteData(1, 0, pattern(0, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := p.InvariantError(); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := c.ReadData(1, 0)
	if err != nil || got != pattern(0, byte(2499%256)) {
		t.Fatalf("hot line after recovery: %v", err)
	}
}

func TestPaperConstantsPinned(t *testing.T) {
	// §III-D: "a 64B non-volatile register can store all eight LIncs,
	// which is enough for 16GB memory" — at the paper's scale the LInc
	// array must fit 8 slots of 8 bytes.
	for _, split := range []bool{false, true} {
		cfg := memctrl.DefaultConfig(16<<30, split)
		lay := memctrl.NewLayout(cfg)
		if lay.Geo.Levels > 8 {
			t.Fatalf("split=%v: %d NVM levels need more than a 64 B LInc register", split, lay.Geo.Levels)
		}
	}
	// §III-E: the 128 B buffer holds 8 entries of 16 B in this model.
	c, p := newSteins(t, false)
	if got := c.Config().NVBufferBytes / 16; got != 8 {
		t.Fatalf("buffer entries = %d, want 8", got)
	}
	_ = p
	// §III-C: a 64 B record line covers 16 nodes, and the record region is
	// cache-capacity entries of 4 bytes.
	if memctrl.RecordEntriesPerLine != 16 {
		t.Fatalf("record entries per line = %d", memctrl.RecordEntriesPerLine)
	}
	lay := c.Layout()
	if lay.RecordBytes != uint64(c.Meta().Capacity())*4 {
		t.Fatalf("record region %d bytes for %d cache lines", lay.RecordBytes, c.Meta().Capacity())
	}
}

func TestDrainReentrancyStress(t *testing.T) {
	// Regression for the drain/applyBuffered interleaving: with a 2-entry
	// buffer and a tiny 2-way cache, drains run constantly while evictions
	// re-adopt in-flight nodes, exercising the hazard where a nested
	// eviction applies (and removes) the entry the outer drain holds.
	cfg := testConfig(false)
	cfg.MetaCacheBytes = 1 << 10 // 16 lines
	cfg.MetaCacheWays = 2
	cfg.NVBufferBytes = 32 // 2 entries: constant drains
	c := memctrl.New(cfg, steins.Factory)
	p := c.Policy().(*steins.Policy)
	r := rng.New(23)
	lines := cfg.DataBytes / 64
	expect := map[uint64][64]byte{}
	for i := 0; i < 20000; i++ {
		addr := r.Uint64n(lines) * 64
		if r.Bool(0.75) {
			v := pattern(addr, byte(i))
			if err := c.WriteData(2, addr, v); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			expect[addr] = v
		} else if _, err := c.ReadData(2, addr); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%2000 == 0 {
			if err := p.InvariantError(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := c.VerifyNVM(); err != nil {
		t.Fatalf("persisted tree inconsistent: %v", err)
	}
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	verifyAll(t, c, expect)
}
