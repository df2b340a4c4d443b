package cache

import "fmt"

// EntryState is the serializable image of one valid cache line, including
// the replacement bookkeeping (Stamp, Slot) that Lookup/Insert normally
// manage. Snapshots must carry it so a restored cache makes the same future
// LRU victim choices as the original.
type EntryState[P any] struct {
	Addr    uint64
	Slot    int
	Stamp   uint64
	Dirty   bool
	Payload P
}

// State is the full serializable image of a cache: every valid line plus
// the global recency stamp and the counters. Entries are listed in
// deterministic (set, way) order.
type State[P any] struct {
	Stamp   uint64
	Stats   Stats
	Entries []EntryState[P]
}

// State captures the cache contents, LRU stamps and statistics. The
// returned payloads alias the live entries; callers that need isolation
// (e.g. pointer payloads) must deep-copy them before mutating the cache.
func (c *Cache[P]) State() State[P] {
	st := State[P]{Stamp: c.stamp, Stats: c.stats}
	c.ForEach(func(e *Entry[P]) {
		st.Entries = append(st.Entries, EntryState[P]{
			Addr: e.Addr, Slot: e.slot, Stamp: e.stamp, Dirty: e.Dirty, Payload: e.Payload,
		})
	})
	return st
}

// SetState clears the cache and rebuilds it bit-exactly from a captured
// State: every line lands in its original slot with its original recency
// stamp, and the global stamp and counters are restored, so subsequent
// hits, misses and evictions replay identically. A state that fails
// CheckState belongs to another cache (or was crafted): SetState then
// returns the error and leaves the cache as it was.
func (c *Cache[P]) SetState(st State[P]) error {
	if err := c.CheckState(st); err != nil {
		return err
	}
	c.Clear()
	for _, e := range st.Entries {
		c.sets[e.Slot/c.ways][e.Slot%c.ways] = Entry[P]{
			Addr: e.Addr, Payload: e.Payload, Dirty: e.Dirty,
			valid: true, stamp: e.Stamp, slot: e.Slot,
		}
	}
	c.stamp = st.Stamp
	c.stats = st.Stats
	return nil
}

// CheckState reports whether every entry of st fits this cache: its slot
// inside the geometry and inside its (aligned) address's set, and the
// entries strictly ascending by slot, the order State lists them in.
func (c *Cache[P]) CheckState(st State[P]) error {
	for i := range st.Entries {
		if err := c.checkEntry(st.Entries, i); err != nil {
			return err
		}
	}
	return nil
}

// checkEntry reports whether entry i of a state fits this cache's geometry
// and follows entry i-1.
func (c *Cache[P]) checkEntry(entries []EntryState[P], i int) error {
	e := entries[i]
	if e.Slot < 0 || e.Slot >= len(c.sets)*c.ways {
		return fmt.Errorf("cache: entry %d slot %d outside %d sets x %d ways", i, e.Slot, len(c.sets), c.ways)
	}
	if e.Addr%c.lineSize != 0 {
		return fmt.Errorf("cache: entry %d address %#x not aligned to the %d-byte line", i, e.Addr, c.lineSize)
	}
	if e.Slot/c.ways != c.SetOf(e.Addr) {
		return fmt.Errorf("cache: entry %d slot %d not in set of address %#x", i, e.Slot, e.Addr)
	}
	if i > 0 && e.Slot <= entries[i-1].Slot {
		return fmt.Errorf("cache: entry %d slot %d does not ascend past slot %d", i, e.Slot, entries[i-1].Slot)
	}
	return nil
}
