package cache

import (
	"testing"
	"testing/quick"
)

func newTest() *Cache[int] {
	// 4 sets x 2 ways x 64 B lines.
	return New[int](512, 2, 64)
}

func TestGeometry(t *testing.T) {
	c := New[int](256*1024, 8, 64)
	if c.Sets() != 512 || c.Ways() != 8 || c.Capacity() != 4096 {
		t.Fatalf("Table I metadata cache geometry wrong: %d sets, %d ways, %d lines",
			c.Sets(), c.Ways(), c.Capacity())
	}
}

func TestMissThenHit(t *testing.T) {
	c := newTest()
	if _, ok := c.Lookup(64); ok {
		t.Fatal("lookup in empty cache hit")
	}
	c.Insert(64, 7, false)
	e, ok := c.Lookup(64)
	if !ok || e.Payload != 7 {
		t.Fatalf("lookup after insert: ok=%v payload=%v", ok, e)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", s)
	}
}

func TestPayloadMutationThroughPointer(t *testing.T) {
	c := newTest()
	e, _, _ := c.Insert(0, 1, false)
	e.Payload = 42
	e.Dirty = true
	got, _ := c.Lookup(0)
	if got.Payload != 42 || !got.Dirty {
		t.Fatal("mutation through entry pointer not visible")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newTest() // 2 ways
	// Three addresses in the same set (stride = sets*64 = 256).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Insert(a, 1, false)
	c.Insert(b, 2, false)
	c.Lookup(a) // a is now most recent; b is LRU
	_, victim, evicted := c.Insert(d, 3, false)
	if !evicted || victim.Addr != b {
		t.Fatalf("victim = %+v (evicted=%v), want addr %d", victim, evicted, b)
	}
	if _, ok := c.Probe(a); !ok {
		t.Fatal("recently used line was evicted")
	}
}

func TestDirtyEvictionReturnsState(t *testing.T) {
	c := newTest()
	e, _, _ := c.Insert(0, 9, false)
	e.Dirty = true
	c.Insert(256, 1, false)
	_, victim, evicted := c.Insert(512, 2, false)
	if !evicted || victim.Addr != 0 || !victim.Dirty || victim.Payload != 9 {
		t.Fatalf("dirty victim state lost: %+v evicted=%v", victim, evicted)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.DirtyEvictions != 1 {
		t.Fatalf("eviction stats %+v", s)
	}
}

func TestInsertResidentPanics(t *testing.T) {
	c := newTest()
	c.Insert(0, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(0, 2, false)
}

func TestProbeDoesNotTouchLRUOrStats(t *testing.T) {
	c := newTest()
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Insert(a, 1, false)
	c.Insert(b, 2, false)
	before := c.Stats()
	c.Probe(a) // must NOT refresh a
	if c.Stats() != before {
		t.Fatal("probe changed stats")
	}
	_, victim, _ := c.Insert(d, 3, false)
	if victim.Addr != a {
		t.Fatalf("probe refreshed recency: victim %d, want %d", victim.Addr, a)
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest()
	c.Insert(0, 1, false)
	if !c.Invalidate(0) {
		t.Fatal("invalidate of resident line returned false")
	}
	if c.Invalidate(0) {
		t.Fatal("invalidate of absent line returned true")
	}
	if _, ok := c.Probe(0); ok {
		t.Fatal("line survives invalidate")
	}
	// The freed way must be reused without evicting.
	_, _, evicted := c.Insert(256, 2, false)
	if evicted {
		t.Fatal("insert after invalidate evicted")
	}
}

func TestForEachOrderAndCount(t *testing.T) {
	c := newTest()
	addrs := []uint64{0, 64, 128, 192, 256}
	for i, a := range addrs {
		c.Insert(a, i, false)
	}
	var seen []uint64
	c.ForEach(func(e *Entry[int]) { seen = append(seen, e.Addr) })
	if len(seen) != len(addrs) {
		t.Fatalf("ForEach visited %d, want %d", len(seen), len(addrs))
	}
	if c.Len() != len(addrs) {
		t.Fatalf("Len = %d", c.Len())
	}
	// Determinism: two traversals identical.
	var again []uint64
	c.ForEach(func(e *Entry[int]) { again = append(again, e.Addr) })
	for i := range seen {
		if seen[i] != again[i] {
			t.Fatal("ForEach order not deterministic")
		}
	}
}

func TestEntriesInSet(t *testing.T) {
	c := newTest()
	c.Insert(0, 1, false)   // set 0
	c.Insert(256, 2, false) // set 0
	c.Insert(64, 3, false)  // set 1
	n := 0
	c.EntriesInSet(0, func(e *Entry[int]) {
		n++
		if e.Addr != 0 && e.Addr != 256 {
			t.Fatalf("wrong entry %d in set 0", e.Addr)
		}
	})
	if n != 2 {
		t.Fatalf("set 0 has %d entries, want 2", n)
	}
}

func TestClear(t *testing.T) {
	c := newTest()
	for i := uint64(0); i < 8; i++ {
		c.Insert(i*64, int(i), true)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
}

func TestSetMapping(t *testing.T) {
	c := New[int](512, 2, 64) // 4 sets
	for _, tc := range []struct {
		addr uint64
		set  int
	}{{0, 0}, {64, 1}, {128, 2}, {192, 3}, {256, 0}, {320, 1}} {
		if got := c.SetOf(tc.addr); got != tc.set {
			t.Errorf("SetOf(%d) = %d, want %d", tc.addr, got, tc.set)
		}
	}
}

func TestUnalignedPanics(t *testing.T) {
	c := newTest()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned address did not panic")
		}
	}()
	c.Lookup(3)
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New[int](0, 2, 64) },
		func() { New[int](100, 2, 64) }, // not multiple of ways*line
		func() { New[int](512, 0, 64) },
		func() { New[int](512, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty HitRate not 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
}

// Property: the cache never holds more than Capacity lines, never holds the
// same address twice, and Lookup-after-Insert always hits until eviction.
func TestPropertyResidencyInvariants(t *testing.T) {
	c := New[uint64](1024, 4, 64) // 4 sets x 4 ways
	f := func(ops []uint16) bool {
		for _, op := range ops {
			addr := uint64(op%64) * 64
			if e, ok := c.Lookup(addr); ok {
				e.Payload = addr
				continue
			}
			c.Insert(addr, addr, false)
		}
		if c.Len() > c.Capacity() {
			return false
		}
		seen := map[uint64]bool{}
		dup := false
		c.ForEach(func(e *Entry[uint64]) {
			if seen[e.Addr] {
				dup = true
			}
			seen[e.Addr] = true
			if e.Payload != e.Addr {
				dup = true // payload corruption
			}
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New[int](256*1024, 8, 64)
	for i := 0; i < c.Capacity(); i++ {
		c.Insert(uint64(i)*64, i, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%c.Capacity()) * 64)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New[int](256*1024, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 64 % (1 << 30)
		if _, ok := c.Lookup(addr); !ok {
			c.Insert(addr, i, true)
		}
	}
}

func TestSlotStableAndUnique(t *testing.T) {
	c := New[int](1024, 4, 64) // 4 sets x 4 ways
	seen := map[int]uint64{}
	for i := 0; i < c.Capacity(); i++ {
		addr := uint64(i) * 64
		e, _, _ := c.Insert(addr, i, false)
		if prev, dup := seen[e.Slot()]; dup {
			t.Fatalf("slot %d reused by %d and %d", e.Slot(), prev, addr)
		}
		if e.Slot() < 0 || e.Slot() >= c.Capacity() {
			t.Fatalf("slot %d out of range", e.Slot())
		}
		seen[e.Slot()] = addr
	}
	// Replacing an entry reuses the victim's slot.
	e, victim, evicted := c.Insert(uint64(c.Capacity())*64, 0, false)
	if !evicted {
		t.Fatal("full cache insert did not evict")
	}
	if seen[e.Slot()] != victim.Addr {
		t.Fatalf("new entry slot %d does not match victim's", e.Slot())
	}
}

// TestSetStateRejectsForeignSlots pins that a state whose entries do not
// fit this cache is refused with an error, not a panic: a slot outside the
// geometry or outside its address's set, an unaligned address, and
// entries out of the (set, way) order State lists them in. A refused state
// leaves the cache as it was; a valid one round-trips.
func TestSetStateRejectsForeignSlots(t *testing.T) {
	src := newTest()
	src.Insert(64, 1, true)
	src.Insert(128, 2, false)
	src.Insert(64*5, 3, false)
	good := src.State()
	for name, craft := range map[string]func(st *State[int]){
		"slot past the geometry": func(st *State[int]) { st.Entries[0].Slot = 1 << 30 },
		"negative slot":          func(st *State[int]) { st.Entries[0].Slot = -1 },
		"slot of another set":    func(st *State[int]) { st.Entries[0].Addr += 64 },
		"unaligned address":      func(st *State[int]) { st.Entries[0].Addr++ },
		"entries out of order": func(st *State[int]) {
			st.Entries[0], st.Entries[1] = st.Entries[1], st.Entries[0]
		},
		"slot restored twice": func(st *State[int]) { st.Entries[1] = st.Entries[0] },
	} {
		st := good
		st.Entries = append([]EntryState[int](nil), good.Entries...)
		craft(&st)
		c := newTest()
		c.Insert(0, 9, false)
		if err := c.SetState(st); err == nil {
			t.Errorf("%s: SetState accepted %+v", name, st.Entries)
		}
		if e, ok := c.Probe(0); c.Len() != 1 || !ok || e.Payload != 9 {
			t.Errorf("%s: refused SetState changed the cache", name)
		}
	}
	c := newTest()
	if err := c.SetState(good); err != nil {
		t.Fatal(err)
	}
	if back := c.State(); len(back.Entries) != 3 || back.Entries[2] != good.Entries[2] || back.Stamp != good.Stamp {
		t.Fatalf("round trip: %+v, want %+v", back, good)
	}
}
