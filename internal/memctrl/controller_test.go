package memctrl_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"steins/internal/cme"
	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/wb"
)

// testConfig returns a small system: 1 MB data, 4 KB metadata cache, so
// eviction churn is easy to provoke.
func testConfig(split bool) memctrl.Config {
	cfg := memctrl.DefaultConfig(1<<20, split)
	cfg.MetaCacheBytes = 4 << 10
	cfg.MetaCacheWays = 4
	return cfg
}

func pattern(addr uint64, v byte) [64]byte {
	var b [64]byte
	binary.LittleEndian.PutUint64(b[:8], addr)
	for i := 8; i < 64; i++ {
		b[i] = v
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, split := range []bool{false, true} {
		c := memctrl.New(testConfig(split), wb.Factory)
		want := pattern(128, 7)
		if err := c.WriteData(10, 128, want); err != nil {
			t.Fatalf("split=%v write: %v", split, err)
		}
		got, err := c.ReadData(10, 128)
		if err != nil {
			t.Fatalf("split=%v read: %v", split, err)
		}
		if got != want {
			t.Fatalf("split=%v read mismatch", split)
		}
	}
}

func TestReadUnwrittenReturnsZero(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	got, err := c.ReadData(0, 512)
	if err != nil || got != ([64]byte{}) {
		t.Fatalf("unwritten read = %v, err %v", got[:4], err)
	}
}

func TestCiphertextInNVMIsNotPlaintext(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	want := pattern(0, 9)
	if err := c.WriteData(0, 0, want); err != nil {
		t.Fatal(err)
	}
	stored := c.Device().Peek(0)
	if [64]byte(stored) == want {
		t.Fatal("NVM holds plaintext")
	}
}

func TestOverwriteAdvancesCounterAndCiphertext(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	v1, v2 := pattern(64, 1), pattern(64, 1)
	if err := c.WriteData(0, 64, v1); err != nil {
		t.Fatal(err)
	}
	ct1 := c.Device().Peek(64)
	if err := c.WriteData(0, 64, v2); err != nil {
		t.Fatal(err)
	}
	ct2 := c.Device().Peek(64)
	if ct1 == ct2 {
		t.Fatal("same plaintext re-encrypted to same ciphertext (pad reuse)")
	}
	got, err := c.ReadData(0, 64)
	if err != nil || got != v2 {
		t.Fatalf("read after overwrite: %v", err)
	}
}

func TestManyLinesRoundTripWithEvictionChurn(t *testing.T) {
	// Footprint far beyond the 4 KB metadata cache forces dirty leaf
	// evictions, parent updates and verification-chain refetches.
	for _, split := range []bool{false, true} {
		c := memctrl.New(testConfig(split), wb.Factory)
		const n = 4096
		for i := uint64(0); i < n; i++ {
			addr := (i * 64) % (1 << 20)
			if err := c.WriteData(5, addr, pattern(addr, byte(i))); err != nil {
				t.Fatalf("split=%v write %d: %v", split, i, err)
			}
		}
		for i := uint64(0); i < n; i++ {
			addr := (i * 64) % (1 << 20)
			got, err := c.ReadData(5, addr)
			if err != nil {
				t.Fatalf("split=%v read %d: %v", split, i, err)
			}
			if got != pattern(addr, byte(i)) {
				t.Fatalf("split=%v read %d mismatch", split, i)
			}
		}
		if c.Meta().Stats().DirtyEvictions == 0 {
			t.Fatalf("split=%v: no dirty evictions; test did not exercise write-back", split)
		}
	}
}

func TestRepeatedWritesSameLine(t *testing.T) {
	c := memctrl.New(testConfig(true), wb.Factory)
	// 200 writes to one block crosses the 6-bit minor overflow (64) at
	// least twice, exercising re-encryption.
	for i := 0; i < 200; i++ {
		if err := c.WriteData(3, 192, pattern(192, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got, err := c.ReadData(3, 192)
	if err != nil || got != pattern(192, 199) {
		t.Fatalf("read after 200 writes: %v", err)
	}
	if c.Stats().Overflows < 2 {
		t.Fatalf("overflows = %d, want >= 2", c.Stats().Overflows)
	}
}

func TestOverflowReencryptsNeighbours(t *testing.T) {
	c := memctrl.New(testConfig(true), wb.Factory)
	// Write two neighbour blocks under the same leaf, then hammer a third
	// until its minor overflows; neighbours must be re-encrypted and stay
	// readable.
	a, b, hot := uint64(0), uint64(64), uint64(128)
	va, vb := pattern(a, 1), pattern(b, 2)
	if err := c.WriteData(0, a, va); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteData(0, b, vb); err != nil {
		t.Fatal(err)
	}
	ctA := c.Device().Peek(a)
	for i := 0; i < 70; i++ {
		if err := c.WriteData(0, hot, pattern(hot, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Overflows == 0 {
		t.Fatal("no overflow triggered")
	}
	if c.Stats().Reencrypts == 0 {
		t.Fatal("no blocks re-encrypted")
	}
	if c.Device().Peek(a) == ctA {
		t.Fatal("neighbour ciphertext unchanged across overflow")
	}
	if got, err := c.ReadData(0, a); err != nil || got != va {
		t.Fatalf("neighbour a unreadable after overflow: %v", err)
	}
	if got, err := c.ReadData(0, b); err != nil || got != vb {
		t.Fatalf("neighbour b unreadable after overflow: %v", err)
	}
}

func TestTamperDataDetected(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	if err := c.WriteData(0, 256, pattern(256, 5)); err != nil {
		t.Fatal(err)
	}
	line := c.Device().Peek(256)
	line[0] ^= 0xff
	c.Device().Poke(256, line)
	if _, err := c.ReadData(0, 256); !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("tampered data read error = %v, want ErrTamper", err)
	}
}

func TestReplayDataDetected(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	if err := c.WriteData(0, 256, pattern(256, 1)); err != nil {
		t.Fatal(err)
	}
	oldLine := c.Device().Peek(256)
	oldTag := c.Tag(256)
	if err := c.WriteData(0, 256, pattern(256, 2)); err != nil {
		t.Fatal(err)
	}
	// Attacker restores the old ciphertext AND old tag; the cached counter
	// has advanced, so verification fails.
	c.Device().Poke(256, oldLine)
	c.SetTag(256, oldTag)
	if _, err := c.ReadData(0, 256); !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("replayed data read error = %v, want ErrTamper", err)
	}
}

func TestTamperNodeDetectedOnFetch(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	const n = 2048
	for i := uint64(0); i < n; i++ {
		if err := c.WriteData(5, i*64*8, pattern(i*64*8, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Tamper a flushed leaf node in NVM, then evict it... find any
	// populated node line in the tree region and corrupt a counter.
	lay := c.Layout()
	var victim uint64
	found := false
	for idx := uint64(0); idx < lay.Geo.LevelNodes[0]; idx++ {
		addr := lay.Geo.NodeAddr(0, idx)
		if c.Device().Peek(addr) != (nvmem.Line{}) {
			// Only useful if not currently cached.
			if _, ok := c.Meta().Probe(addr); !ok {
				victim, found = idx, true
				break
			}
		}
	}
	if !found {
		t.Skip("no flushed uncached leaf to tamper")
	}
	addr := lay.Geo.NodeAddr(0, victim)
	line := c.Device().Peek(addr)
	line[3] ^= 1
	c.Device().Poke(addr, line)
	dataAddr := lay.Geo.DataAddr(victim, 0)
	if _, err := c.ReadData(0, dataAddr); !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("tampered node fetch error = %v, want ErrTamper", err)
	}
}

func TestWriteLatencyAccounted(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	if err := c.WriteData(100, 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.DataWrites != 1 || s.WriteLatSum == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if c.ExecCycles() == 0 {
		t.Fatal("exec cycles zero after a write")
	}
}

func TestReadLatencyHidesDecryption(t *testing.T) {
	// With the counter cached, read latency ~= NVM read + hash, not
	// NVM read + AES + hash: OTP generation overlaps the fetch (§II-B).
	cfg := testConfig(false)
	c := memctrl.New(cfg, wb.Factory)
	if err := c.WriteData(0, 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().ReadLatSum
	if _, err := c.ReadData(1_000_000, 0); err != nil {
		t.Fatal(err)
	}
	lat := c.Stats().ReadLatSum - before
	nvmRead := c.Config().NVM.ReadCycles()
	want := nvmRead + cfg.HashCycles
	if lat != want {
		t.Fatalf("cached-counter read latency = %d, want %d (AES hidden)", lat, want)
	}
}

func TestEagerUpdateDirtiesBranch(t *testing.T) {
	cfg := testConfig(false)
	cfg.EagerUpdate = true
	c := memctrl.New(cfg, wb.Factory)
	if err := c.WriteData(0, 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Every ancestor of leaf 0 must now be cached dirty.
	lay := c.Layout()
	level, idx := 0, uint64(0)
	for {
		e, ok := c.Meta().Probe(lay.Geo.NodeAddr(level, idx))
		if !ok || !e.Dirty {
			t.Fatalf("level %d node %d not cached dirty under eager update", level, idx)
		}
		if lay.Geo.IsTop(level) {
			break
		}
		level, idx, _ = lay.Geo.Parent(level, idx)
	}
	if c.Root().Counter(0) == 0 {
		t.Fatal("root counter not advanced under eager update")
	}
	// Round trip still works.
	if got, err := c.ReadData(0, 0); err != nil || got != pattern(0, 1) {
		t.Fatalf("eager read: %v", err)
	}
}

func TestEagerRoundTripWithChurn(t *testing.T) {
	cfg := testConfig(false)
	cfg.EagerUpdate = true
	c := memctrl.New(cfg, wb.Factory)
	for i := uint64(0); i < 2000; i++ {
		addr := (i * 64 * 3) % (1 << 20)
		if err := c.WriteData(5, addr, pattern(addr, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		addr := (i * 64 * 3) % (1 << 20)
		if _, err := c.ReadData(5, addr); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestWBRecoverUnsupported(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	c.Crash()
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrNoRecovery) {
		t.Fatalf("WB recover error = %v, want ErrNoRecovery", err)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	// Calling Recover twice (the second time without an intervening crash)
	// must return the same report without re-running the recovery pass or
	// touching the device again.
	c := memctrl.New(testConfig(false), steins.Factory)
	for i := uint64(0); i < 2000; i++ {
		addr := (i * 64 * 3) % (1 << 20)
		if err := c.WriteData(5, addr, pattern(addr, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	c.Crash()
	rep1, err := c.Recover()
	if err != nil {
		t.Fatalf("first recover: %v", err)
	}
	devStats := c.Device().Stats()
	rep2, err := c.Recover()
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("repeated recover reports differ:\n%+v\n%+v", rep1, rep2)
	}
	if got := c.Device().Stats(); got != devStats {
		t.Fatal("second Recover touched the device (recovery re-ran)")
	}
	// A fresh crash invalidates the cache and recovery really runs again.
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("recover after second crash: %v", err)
	}
}

func TestWBCrashLosesDirtyMetadata(t *testing.T) {
	// The motivation (§II-D): without a recovery scheme, data whose leaf
	// counters were dirty at the crash fails verification afterwards.
	c := memctrl.New(testConfig(false), wb.Factory)
	if err := c.WriteData(0, 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	if _, err := c.ReadData(0, 0); err == nil {
		t.Fatal("read after crash succeeded though leaf counter was lost")
	}
}

func TestStorageOverheadWB(t *testing.T) {
	gc := memctrl.New(testConfig(false), wb.Factory)
	sc := memctrl.New(testConfig(true), wb.Factory)
	sg, ss := gc.Policy().Storage(), sc.Policy().Storage()
	if sg.TreeBytes <= ss.TreeBytes {
		t.Fatalf("GC tree (%d) not larger than SC tree (%d)", sg.TreeBytes, ss.TreeBytes)
	}
	// §IV-E: GC leaves are 1/8 of data.
	if lf := gc.Layout().Geo.LevelNodes[0] * 64; lf != (1<<20)/8 {
		t.Fatalf("GC leaf bytes = %d, want %d", lf, (1<<20)/8)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (uint64, nvmem.Stats) {
		c := memctrl.New(testConfig(true), wb.Factory)
		for i := uint64(0); i < 3000; i++ {
			addr := (i * 64 * 7) % (1 << 20)
			if i%3 == 0 {
				c.ReadData(4, addr)
			} else if err := c.WriteData(4, addr, pattern(addr, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		return c.ExecCycles(), c.Device().Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", e1, e2)
	}
}

func TestCounterWrapSurfaced(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	// Force the 56-bit wrap by planting a max counter in the cached leaf.
	if err := c.WriteData(0, 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Meta().Probe(c.Layout().Geo.NodeAddr(0, 0))
	if !ok {
		t.Fatal("leaf not cached")
	}
	e.Payload.Gen.C[0] = counter.CounterMask
	if err := c.WriteData(0, 0, pattern(0, 2)); !errors.Is(err, memctrl.ErrUnrecoverable) {
		t.Fatalf("wrap error = %v, want ErrUnrecoverable", err)
	}
}

func TestUnwrittenNeighbourReadableAfterMajorBump(t *testing.T) {
	// Regression: after a neighbour's minor overflow advances the split
	// leaf's major counter, a never-written block under the same leaf has
	// a non-zero encryption counter (major<<6) but no tag. It must still
	// read back as zero, not as a tamper violation.
	c := memctrl.New(testConfig(true), wb.Factory)
	hot, virgin := uint64(0), uint64(64*5) // same leaf
	for i := 0; i < 70; i++ {              // cross the 6-bit minor overflow
		if err := c.WriteData(1, hot, pattern(hot, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Overflows == 0 {
		t.Fatal("no overflow triggered")
	}
	got, err := c.ReadData(1, virgin)
	if err != nil {
		t.Fatalf("virgin neighbour read failed: %v", err)
	}
	if got != ([64]byte{}) {
		t.Fatal("virgin neighbour returned non-zero data")
	}
	// An erased tag on a WRITTEN block must still be caught.
	c.SetTag(hot, cme.Tag{})
	if _, err := c.ReadData(1, hot); !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("erased tag read error = %v, want ErrTamper", err)
	}
}

func TestClosedLoopArrivalBoundsLatency(t *testing.T) {
	// With gaps far below service capacity the closed-loop core model must
	// stretch execution time rather than let queueing latency diverge.
	cfg := testConfig(false)
	c := memctrl.New(cfg, wb.Factory)
	for i := uint64(0); i < 3000; i++ {
		addr := (i * 64) % (1 << 20)
		if err := c.WriteData(1, addr, pattern(addr, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	avg := c.Stats().AvgWriteLatency()
	// Bounded by the run-ahead window plus a generous per-request path.
	if avg > float64(cfg.RunAheadCycles)+30000 {
		t.Fatalf("average write latency %v diverged", avg)
	}
	// Requests arrived back to back (gap 1); the makespan must reflect the
	// controller's occupancy, not the trace's nominal 3000 cycles.
	if c.ExecCycles() < 3000*50 {
		t.Fatalf("exec %d cycles implausibly low for 3000 back-to-back requests", c.ExecCycles())
	}
}

// TestControllerStateDoubleRenderByteIdentical renders the controller
// state twice after a scattered write burst and demands byte-identical
// gob encodings: the tag, quarantine and cache emitters must walk their
// backing stores in a deterministic order.
func TestControllerStateDoubleRenderByteIdentical(t *testing.T) {
	c := memctrl.New(testConfig(true), steins.Factory)
	for _, addr := range []uint64{4096, 64, 1 << 19, 128, 0, 640, 65536} {
		if err := c.WriteData(5, addr, pattern(addr, 3)); err != nil {
			t.Fatal(err)
		}
	}
	encode := func() []byte {
		st, err := c.State()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same controller state differ byte-wise")
	}
}
