package nvmem

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"testing/quick"

	"steins/internal/rng"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.CapacityBytes = 1 << 20
	return c
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d := New(smallConfig())
	line, lat, err := d.Read(0, 128, ClassData)
	if err != nil {
		t.Fatal(err)
	}
	if line != (Line{}) {
		t.Fatal("unwritten line not zero")
	}
	if want := d.Config().ReadCycles(); lat != want {
		t.Fatalf("read latency %d, want %d", lat, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(smallConfig())
	var l Line
	for i := range l {
		l[i] = byte(i)
	}
	if _, err := d.Write(0, 64, l, ClassData); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.Read(10, 64, ClassData)
	if got != l {
		t.Fatal("read did not return written contents")
	}
}

func TestWriteDurableImmediately(t *testing.T) {
	// ADR semantics: a write accepted into the queue survives a crash, so
	// Peek must observe it with no time advance.
	d := New(smallConfig())
	l := Line{1}
	d.Write(0, 0, l, ClassMeta)
	if d.Peek(0) != l {
		t.Fatal("write not durable on return")
	}
}

func TestTimingDerivation(t *testing.T) {
	c := DefaultConfig()
	if got := c.ReadCycles(); got != 126 { // (48+15) ns * 2 GHz
		t.Fatalf("ReadCycles = %d, want 126", got)
	}
	if got := c.WriteServiceCycles(); got != 626 { // (13+300) ns * 2 GHz
		t.Fatalf("WriteServiceCycles = %d, want 626", got)
	}
}

func TestWriteQueueNoStallWhenSlack(t *testing.T) {
	d := New(smallConfig())
	for i := 0; i < d.Config().WriteQueueEntries; i++ {
		if stall, _ := d.Write(0, uint64(i)*64, Line{byte(i + 1)}, ClassData); stall != 0 {
			t.Fatalf("write %d stalled %d cycles with queue not yet full", i, stall)
		}
	}
}

func TestWriteQueueStallsWhenFull(t *testing.T) {
	d := New(smallConfig())
	n := d.Config().WriteQueueEntries
	for i := 0; i < n; i++ {
		d.Write(0, uint64(i)*64, Line{1}, ClassData)
	}
	stall, _ := d.Write(0, uint64(n)*64, Line{1}, ClassData)
	if stall == 0 {
		t.Fatal("write into full queue did not stall")
	}
	// The first queued write completes after one service time.
	if want := d.Config().WriteServiceCycles(); stall != want {
		t.Fatalf("stall = %d, want %d (head completion)", stall, want)
	}
	if d.Stats().StallCycles != stall {
		t.Fatalf("StallCycles = %d, want %d", d.Stats().StallCycles, stall)
	}
}

func TestWriteQueueDrainsOverTime(t *testing.T) {
	d := New(smallConfig())
	n := d.Config().WriteQueueEntries
	for i := 0; i < n; i++ {
		d.Write(0, uint64(i)*64, Line{1}, ClassData)
	}
	if got := d.QueueDepth(0); got != n {
		t.Fatalf("depth at t=0: %d, want %d", got, n)
	}
	far := uint64(n) * d.Config().WriteServiceCycles()
	if got := d.QueueDepth(far); got != 0 {
		t.Fatalf("depth after full drain window: %d, want 0", got)
	}
	// A write after the drain must not stall.
	if stall, _ := d.Write(far, 0, Line{2}, ClassData); stall != 0 {
		t.Fatalf("post-drain write stalled %d cycles", stall)
	}
}

// TestWriteQueueFullForLong keeps a one-bank queue full for several times
// its capacity, so drain retires entries off its front and they move back
// to the buffer's start again and again: every write stalls exactly until
// the head completes, the depth stays at capacity, and none allocates.
func TestWriteQueueFullForLong(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteBanks = 1
	d := New(cfg)
	n, svc := cfg.WriteQueueEntries, cfg.WriteServiceCycles()
	k := 0
	write := func() {
		stall, err := d.Write(0, 0, Line{1}, ClassData)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if k >= n {
			want = uint64(k-n+1) * svc
		}
		if stall != want || d.QueueDepth(0) != min(k+1, n) {
			t.Fatalf("write %d: stall %d, depth %d; want %d, %d", k, stall, d.QueueDepth(0), want, min(k+1, n))
		}
		k++
	}
	write() // the first write allocates the line's chunks
	if allocs := testing.AllocsPerRun(5, func() {
		for range 4 * n {
			write()
		}
	}); allocs != 0 {
		t.Fatalf("%d writes into a full queue allocate %.0f times", 4*n, allocs)
	}
}

func TestQueueDepthPartialDrain(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteBanks = 1 // serial drain for exact FIFO timing
	d := New(cfg)
	svc := d.Config().WriteServiceCycles()
	for i := 0; i < 4; i++ {
		d.Write(0, uint64(i)*64, Line{1}, ClassData)
	}
	if got := d.QueueDepth(svc*2 + 1); got != 2 {
		t.Fatalf("depth after 2 service times: %d, want 2", got)
	}
}

func TestBankParallelDrain(t *testing.T) {
	d := New(smallConfig()) // 4 banks
	svc := d.Config().WriteServiceCycles()
	for i := 0; i < 8; i++ {
		d.Write(0, uint64(i)*64, Line{1}, ClassData)
	}
	// One service window drains one write per bank.
	if got := d.QueueDepth(svc + 1); got != 4 {
		t.Fatalf("depth after 1 service time: %d, want 4 (4 banks)", got)
	}
	if got := d.QueueDepth(2*svc + 1); got != 0 {
		t.Fatalf("depth after 2 service times: %d, want 0", got)
	}
}

func TestBadBanksPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteBanks = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero banks did not panic")
		}
	}()
	New(cfg)
}

func TestClassAccounting(t *testing.T) {
	d := New(smallConfig())
	d.Write(0, 0, Line{1}, ClassData)
	d.Write(0, 64, Line{1}, ClassMeta)
	d.Write(0, 128, Line{1}, ClassShadow)
	d.Read(0, 0, ClassData)
	d.Read(0, 64, ClassMeta)
	s := d.Stats()
	if s.Writes[ClassData] != 1 || s.Writes[ClassMeta] != 1 || s.Writes[ClassShadow] != 1 {
		t.Fatalf("per-class writes wrong: %+v", s.Writes)
	}
	if s.Reads[ClassData] != 1 || s.Reads[ClassMeta] != 1 {
		t.Fatalf("per-class reads wrong: %+v", s.Reads)
	}
	if s.TotalWrites() != 3 || s.TotalReads() != 2 {
		t.Fatalf("totals wrong: %d writes, %d reads", s.TotalWrites(), s.TotalReads())
	}
	if s.WriteBytes() != 3*LineSize {
		t.Fatalf("WriteBytes = %d", s.WriteBytes())
	}
}

func TestEnergyModel(t *testing.T) {
	d := New(smallConfig())
	d.Write(0, 0, Line{1}, ClassData)
	d.Read(0, 0, ClassData)
	e := d.Config().Energy
	if got, want := d.EnergyPJ(), e.ReadPJ+e.WritePJ; got != want {
		t.Fatalf("EnergyPJ = %v, want %v", got, want)
	}
}

func TestPokeBypassesStats(t *testing.T) {
	d := New(smallConfig())
	d.Poke(0, Line{9})
	if d.Stats().TotalWrites() != 0 {
		t.Fatal("Poke counted as a write")
	}
	if d.Peek(0) != (Line{9}) {
		t.Fatal("Poke contents not visible")
	}
}

func TestZeroLineStaysSparse(t *testing.T) {
	d := New(smallConfig())
	d.Write(0, 0, Line{5}, ClassData)
	if d.PopulatedLines() != 1 {
		t.Fatalf("populated = %d, want 1", d.PopulatedLines())
	}
	d.Write(0, 0, Line{}, ClassData)
	if d.PopulatedLines() != 0 {
		t.Fatalf("populated after zero write = %d, want 0", d.PopulatedLines())
	}
	if d.Peek(0) != (Line{}) {
		t.Fatal("zeroed line reads non-zero")
	}
}

func TestUnalignedAccessError(t *testing.T) {
	d := New(smallConfig())
	if _, _, err := d.Read(0, 3, ClassData); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned read error = %v, want ErrUnaligned", err)
	}
	if _, err := d.Write(0, 7, Line{}, ClassData); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned write error = %v, want ErrUnaligned", err)
	}
}

func TestOutOfRangeAccessError(t *testing.T) {
	// Regression: an address beyond CapacityBytes must come back as a
	// wrapped ErrOutOfRange, not a panic or a silent success.
	d := New(smallConfig())
	capb := d.Config().CapacityBytes
	if _, err := d.Write(0, capb, Line{}, ClassData); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range write error = %v, want ErrOutOfRange", err)
	}
	if _, _, err := d.Read(0, capb+64, ClassData); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range read error = %v, want ErrOutOfRange", err)
	}
	// The failed accesses must not have been counted or stored.
	if d.Stats().TotalWrites() != 0 || d.Stats().TotalReads() != 0 {
		t.Fatalf("rejected accesses were counted: %+v", d.Stats())
	}
	if d.PopulatedLines() != 0 {
		t.Fatal("rejected write stored a line")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.CapacityBytes = 100 }, // not line-multiple
		func(c *Config) { c.WriteQueueEntries = 0 },
	} {
		c := smallConfig()
		mut(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestWriteReadPropertyRoundTrip(t *testing.T) {
	d := New(smallConfig())
	cap64 := d.Config().CapacityBytes / LineSize
	f := func(slot uint64, val Line) bool {
		addr := (slot % cap64) * LineSize
		if _, err := d.Write(0, addr, val, ClassData); err != nil {
			return false
		}
		got, _, err := d.Read(0, addr, ClassData)
		return err == nil && got == val && d.Peek(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassBitmap.String() != "bitmap" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() == "" {
		t.Fatal("out-of-range class produced empty string")
	}
}

func BenchmarkWrite(b *testing.B) {
	d := New(DefaultConfig())
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) % (1 << 20)) * LineSize
		now += 1000 // arrive slower than service to avoid stall dominance
		d.Write(now, addr, Line{byte(i)}, ClassData)
	}
}

func BenchmarkRead(b *testing.B) {
	d := New(DefaultConfig())
	for i := 0; i < 1024; i++ {
		d.Poke(uint64(i)*LineSize, Line{byte(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(uint64(i), (uint64(i)%1024)*LineSize, ClassData)
	}
}

func TestWearTracking(t *testing.T) {
	d := New(smallConfig())
	for i := 0; i < 10; i++ {
		d.Write(uint64(i)*1000, 0, Line{byte(i + 1)}, ClassData)
	}
	d.Write(0, 64, Line{1}, ClassMeta)
	w := d.WearStats()
	if w.LinesWritten != 2 || w.TotalWrites != 11 {
		t.Fatalf("wear = %+v", w)
	}
	if w.MaxPerLine != 10 || w.HotAddr != 0 {
		t.Fatalf("hottest = %+v", w)
	}
	if d.WearOf(64) != 1 {
		t.Fatalf("WearOf(64) = %d", d.WearOf(64))
	}
	// Poke (attack injection) does not consume endurance.
	d.Poke(128, Line{9})
	if d.WearOf(128) != 0 {
		t.Fatal("Poke consumed endurance")
	}
}

// TestWearStatsHotAddrDeterministic pins the tie-breaking rule the
// map-backed implementation left to iteration order: among lines sharing
// the maximum write count, HotAddr is the lowest address, regardless of
// the order the writes arrived in.
func TestWearStatsHotAddrDeterministic(t *testing.T) {
	d := New(smallConfig())
	// Touch the higher address first so insertion order disagrees with
	// address order.
	for i := 0; i < 3; i++ {
		d.Write(uint64(i*10), 256, Line{1}, ClassData)
	}
	for i := 0; i < 3; i++ {
		d.Write(uint64(100+i*10), 64, Line{2}, ClassData)
	}
	w := d.WearStats()
	if w.MaxPerLine != 3 || w.HotAddr != 64 {
		t.Fatalf("hottest = %+v, want MaxPerLine 3 at HotAddr 64 (lowest tied address)", w)
	}
	if got := d.WearStats(); got != w {
		t.Fatalf("WearStats not stable across calls: %+v then %+v", w, got)
	}
}

// TestStateDoubleRenderByteIdentical renders the device state twice and
// demands byte-identical gob encodings: every emitter must walk its
// backing store in a deterministic (ascending-address) order.
func TestStateDoubleRenderByteIdentical(t *testing.T) {
	d := New(smallConfig())
	// Populate lines and wear at scattered, non-monotonic addresses.
	for _, addr := range []uint64{4096, 64, 1 << 19, 128, 0, 640} {
		if _, err := d.Write(0, addr, Line{byte(addr)}, ClassData); err != nil {
			t.Fatal(err)
		}
	}
	// Sticky stuck-at overlays, again out of address order.
	d.frng = rng.New(7)
	d.addStuckBit(4096)
	d.addStuckBit(64)
	encode := func(st State) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(d.State()), encode(d.State())
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same device state differ byte-wise")
	}
}
