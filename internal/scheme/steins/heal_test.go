package steins_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/steins"
	"steins/internal/sit"
)

func newDegradedSteins(t *testing.T, split bool) (*memctrl.Controller, *steins.Policy) {
	t.Helper()
	cfg := testConfig(split)
	cfg.DegradedRecovery = true
	c := memctrl.New(cfg, steins.Factory)
	return c, c.Policy().(*steins.Policy)
}

// corruptNode flips one bit of a node's persisted NVM image via Poke —
// the tamper model: the damage leaves no media evidence.
func corruptNode(c *memctrl.Controller, level int, index uint64) {
	addr := c.Layout().Geo.NodeAddr(level, index)
	line := c.Device().Peek(addr)
	line[3] ^= 0x10
	c.Device().Poke(addr, line)
}

// corruptNodeMedia flips one bit of a node's persisted image as MEDIA
// damage: the evidence ledger records the uncorrectable event, so degraded
// recovery's arbitration attributes the damage to the media.
func corruptNodeMedia(c *memctrl.Controller, level int, index uint64) {
	addr := c.Layout().Geo.NodeAddr(level, index)
	line := c.Device().Peek(addr)
	line[3] ^= 0x10
	c.Device().CorruptLine(addr, line)
}

// persistedInteriorNodes lists (level, index) of every nonzero persisted
// non-leaf node.
func persistedInteriorNodes(c *memctrl.Controller) []memctrl.NodeRef {
	geo := &c.Layout().Geo
	var out []memctrl.NodeRef
	for k := 1; k < geo.Levels; k++ {
		for idx := uint64(0); idx < geo.LevelNodes[k]; idx++ {
			if c.Device().Peek(geo.NodeAddr(k, idx)) != (nvmem.Line{}) {
				out = append(out, memctrl.NodeRef{Level: k, Index: idx})
			}
		}
	}
	return out
}

// TestSteinsHealsCorruptedInteriorNodes is the paper's self-healing claim:
// with k >= 3 interior nodes corrupted on the media (evidence-backed
// damage) but their children intact, degraded recovery regenerates each
// one from its children (Eq. 1/2), re-seals it, and completes with nothing
// quarantined or lost.
func TestSteinsHealsCorruptedInteriorNodes(t *testing.T) {
	for _, split := range []bool{false, true} {
		c, _ := newDegradedSteins(t, split)
		expect := workload(t, c, 4000, 1234)
		c.Crash()

		candidates := persistedInteriorNodes(c)
		if len(candidates) < 3 {
			t.Fatalf("split=%v: only %d persisted interior nodes", split, len(candidates))
		}
		// Spread the corruption: first, middle and last persisted node, and
		// a fourth if available, hitting several levels.
		picks := []memctrl.NodeRef{candidates[0], candidates[len(candidates)/2], candidates[len(candidates)-1]}
		if len(candidates) > 3 {
			picks = append(picks, candidates[len(candidates)/4])
		}
		corrupted := make(map[memctrl.NodeRef]bool)
		for _, ref := range picks {
			if !corrupted[ref] {
				corrupted[ref] = true
				corruptNodeMedia(c, ref.Level, ref.Index)
			}
		}
		if len(corrupted) < 3 {
			t.Fatalf("split=%v: only corrupted %d distinct nodes", split, len(corrupted))
		}

		rep, err := c.Recover()
		if err != nil {
			t.Fatalf("split=%v: degraded recover: %v", split, err)
		}
		healed := make(map[memctrl.NodeRef]bool)
		for _, ref := range rep.Degradation.Healed {
			healed[ref] = true
		}
		for ref := range corrupted {
			if !healed[ref] {
				t.Errorf("split=%v: corrupted node %+v not healed", split, ref)
			}
		}
		if len(rep.Degradation.Unrecoverable) != 0 {
			t.Fatalf("split=%v: unrecoverable set not empty: %+v", split, rep.Degradation.Unrecoverable)
		}
		if len(rep.Degradation.Quarantined) != 0 {
			t.Fatalf("split=%v: children were intact, nothing should be quarantined: %+v",
				split, rep.Degradation.Quarantined)
		}
		if c.QuarantinedLeaves() != 0 {
			t.Fatalf("split=%v: %d leaves quarantined", split, c.QuarantinedLeaves())
		}

		// Healed in place: every image self-verifies again and the full data
		// set reads back.
		for ref := range corrupted {
			n := c.StaleNode(ref.Level, ref.Index)
			if c.NodeMAC(n, n.FValue()) != n.HMAC() {
				t.Errorf("split=%v: node %+v not self-consistent after heal", split, ref)
			}
		}
		verifyAll(t, c, expect)

		// And the system keeps running, including another clean crash cycle.
		expect2 := workload(t, c, 500, 77)
		c.Crash()
		rep2, err := c.Recover()
		if err != nil {
			t.Fatalf("split=%v: second recover: %v", split, err)
		}
		if rep2.Degradation.Degraded() {
			t.Fatalf("split=%v: second recovery still degraded: %+v", split, rep2.Degradation)
		}
		verifyAll(t, c, expect2)
	}
}

// TestDegradedRecoveryQuarantinesCorruptLeaf: a corrupted leaf node cannot
// be regenerated (its counters live nowhere else), so degraded recovery
// must fence off exactly its coverage and keep everything else available.
func TestDegradedRecoveryQuarantinesCorruptLeaf(t *testing.T) {
	c, _ := newDegradedSteins(t, false)
	expect := workload(t, c, 4000, 99)

	c.Crash()
	// Corrupt a level-1 interior node AND one of its persisted leaf
	// children: the degraded scrub visits every interior node, so the heal
	// is guaranteed to run, and the corrupt child makes it impossible —
	// exactly the quarantine case.
	geo := &c.Layout().Geo
	parent, leafChild := uint64(0), uint64(0)
	found := false
pick:
	for pi := uint64(0); pi < geo.LevelNodes[1]; pi++ {
		if c.Device().Peek(geo.NodeAddr(1, pi)) == (nvmem.Line{}) {
			continue
		}
		for i := uint64(0); i < 8; i++ {
			ci := pi*8 + i
			if ci < geo.LevelNodes[0] && c.Device().Peek(geo.NodeAddr(0, ci)) != (nvmem.Line{}) {
				parent, leafChild, found = pi, ci, true
				break pick
			}
		}
	}
	if !found {
		t.Fatal("no persisted level-1 node with a persisted leaf child")
	}
	corruptNode(c, 1, parent)
	corruptNode(c, 0, leafChild)

	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("degraded recover: %v", err)
	}
	if len(rep.Degradation.Quarantined) == 0 || rep.Degradation.DataLossBoundBytes == 0 {
		t.Fatalf("quarantine not reported: %+v", rep.Degradation)
	}
	if !c.LeafQuarantined(leafChild) {
		t.Fatalf("leaf %d under the failed heal not quarantined", leafChild)
	}
	if c.QuarantinedLeaves() == 0 {
		t.Fatal("no leaves quarantined on the controller")
	}
	// The damage was injected via Poke — no media evidence — so the
	// arbitration must NOT blame the media: evidence-free damage is
	// attack-shaped.
	if rec, ok := c.LeafQuarantineRecord(leafChild); !ok {
		t.Fatalf("leaf %d has no quarantine record", leafChild)
	} else if rec.Cause.MediaExplained() {
		t.Fatalf("evidence-free corruption arbitrated as media: %+v", rec)
	}
	if !rep.Degradation.ReplayShaped() {
		t.Fatalf("degradation report not flagged replay-shaped: %+v", rep.Degradation.Records)
	}

	// No silent corruption: every address either reads back correctly or
	// fails with a structured error, and failures stay inside the
	// quarantined coverage.
	for addr, want := range expect {
		got, rerr := c.ReadData(1, addr)
		if rerr != nil {
			l, _ := geo.LeafOfData(addr)
			if !c.LeafQuarantined(l) {
				t.Fatalf("read %#x failed outside quarantine: %v", addr, rerr)
			}
			if !errors.Is(rerr, memctrl.ErrMediaFault) {
				t.Fatalf("read %#x: unstructured failure %v", addr, rerr)
			}
			continue
		}
		if got != want {
			t.Fatalf("read %#x: silently wrong data", addr)
		}
	}

	// A fresh write into the quarantined coverage is the re-admission path:
	// it succeeds, the written slot reads back the fresh data, and the rest
	// of the leaf stays fenced with the typed quarantine error.
	waddr := geo.DataAddr(leafChild, 0)
	if werr := c.WriteData(1, waddr, pattern(waddr, 1)); werr != nil {
		t.Fatalf("re-admitting write = %v", werr)
	}
	if got, rerr := c.ReadData(1, waddr); rerr != nil {
		t.Fatalf("read of re-admitted slot: %v", rerr)
	} else if got != pattern(waddr, 1) {
		t.Fatal("re-admitted slot read back wrong data")
	}
	fenced := geo.DataAddr(leafChild, 1)
	var qe *memctrl.QuarantineError
	if _, rerr := c.ReadData(1, fenced); !errors.As(rerr, &qe) {
		t.Fatalf("read beside the re-admitted slot = %v, want *QuarantineError", rerr)
	} else if qe.Leaf != leafChild || qe.Cause.MediaExplained() {
		t.Fatalf("quarantine error carries wrong arbitration: %+v", qe)
	}
}

// pickDamagedPair finds a persisted level-1 node with a persisted leaf
// child and corrupts both via Poke (evidence-free damage): the guaranteed
// quarantine setup shared by the idempotency and re-admission tests.
func pickDamagedPair(t *testing.T, c *memctrl.Controller) (parent, leafChild uint64) {
	t.Helper()
	geo := &c.Layout().Geo
	for pi := uint64(0); pi < geo.LevelNodes[1]; pi++ {
		if c.Device().Peek(geo.NodeAddr(1, pi)) == (nvmem.Line{}) {
			continue
		}
		for i := uint64(0); i < 8; i++ {
			ci := pi*8 + i
			if ci < geo.LevelNodes[0] && c.Device().Peek(geo.NodeAddr(0, ci)) != (nvmem.Line{}) {
				corruptNode(c, 1, pi)
				corruptNode(c, 0, ci)
				return pi, ci
			}
		}
	}
	t.Fatal("no persisted level-1 node with a persisted leaf child")
	return 0, 0
}

// quarantineRecords snapshots every quarantined leaf's arbitration record,
// keyed by leaf index.
func quarantineRecords(c *memctrl.Controller) map[uint64]memctrl.QuarantineRecord {
	out := make(map[uint64]memctrl.QuarantineRecord)
	for leaf := uint64(0); leaf < c.Layout().Geo.LevelNodes[0]; leaf++ {
		if rec, ok := c.LeafQuarantineRecord(leaf); ok {
			out[leaf] = rec
		}
	}
	return out
}

// TestQuarantiningRecoveryIdempotent: a recovery that quarantines is a
// stable verdict, not a one-shot. Crashing again with no intervening
// writes re-runs the arbitration against the same damage and the same
// evidence ledgers, and must reproduce the identical quarantine set —
// roots, causes and evidence summaries included.
func TestQuarantiningRecoveryIdempotent(t *testing.T) {
	c, _ := newDegradedSteins(t, false)
	workload(t, c, 4000, 99)
	c.Crash()
	_, leafChild := pickDamagedPair(t, c)

	if _, err := c.Recover(); err != nil {
		t.Fatalf("first degraded recover: %v", err)
	}
	recs1 := quarantineRecords(c)
	if _, ok := recs1[leafChild]; !ok {
		t.Fatalf("leaf %d not quarantined by the first recovery", leafChild)
	}

	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatalf("second degraded recover: %v", err)
	}
	recs2 := quarantineRecords(c)
	if !reflect.DeepEqual(recs1, recs2) {
		t.Fatalf("recovery verdicts not idempotent:\nfirst:  %+v\nsecond: %+v", recs1, recs2)
	}
}

// pickQuietLeaf finds a persisted leaf with no unflushed increments in the
// live cache (its crash-time delta is zero, so damaging it disturbs
// nothing the LInc equalities account) whose parent IS tracked dirty (so
// the next recovery deterministically visits the leaf and renders its
// verdict). Call it BEFORE Crash, while the cache is still live.
func pickQuietLeaf(t *testing.T, c *memctrl.Controller) uint64 {
	t.Helper()
	geo := &c.Layout().Geo
	for leaf := uint64(0); leaf < geo.LevelNodes[0]; leaf++ {
		if c.Device().Peek(geo.NodeAddr(0, leaf)) == (nvmem.Line{}) {
			continue
		}
		if e, ok := c.Meta().Probe(geo.NodeAddr(0, leaf)); ok && e.Dirty {
			continue
		}
		pl, pi, _ := geo.Parent(0, leaf)
		if pe, ok := c.Meta().Probe(geo.NodeAddr(pl, pi)); ok && pe.Dirty {
			return leaf
		}
	}
	t.Fatal("no quiet persisted leaf with a tracked parent")
	return 0
}

// TestReadmissionSurvivesCrashRecover: once a quarantined leaf is fully
// re-admitted by fresh writes AND the rewritten branch resealed (the
// condemned NVM image replaced by a freshly sealed one), a subsequent
// crash/recover cycle must not resurrect the quarantine — the adoption
// reconciled the parent side onto the re-admitted base, the reseal wrote
// honest increment deltas, and the rebased trust registers balance, so
// the next recovery has nothing left to arbitrate there.
func TestReadmissionSurvivesCrashRecover(t *testing.T) {
	c, _ := newDegradedSteins(t, false)
	expect := workload(t, c, 4000, 99)
	leafChild := pickQuietLeaf(t, c)
	c.Crash()
	corruptNode(c, 0, leafChild)
	if _, err := c.Recover(); err != nil {
		t.Fatalf("degraded recover: %v", err)
	}
	if !c.LeafQuarantined(leafChild) {
		t.Fatalf("leaf %d not quarantined", leafChild)
	}

	geo := &c.Layout().Geo
	for slot := 0; slot < int(geo.LeafCover); slot++ {
		addr := geo.DataAddr(leafChild, slot)
		expect[addr] = pattern(addr, 7)
		if err := c.WriteData(1, addr, expect[addr]); err != nil {
			t.Fatalf("re-admitting write slot %d: %v", slot, err)
		}
	}
	if c.LeafQuarantined(leafChild) {
		t.Fatal("full-coverage rewrite did not lift the quarantine")
	}
	// Re-admission completes on reseal: flush the rewritten leaf so the
	// condemned NVM image is replaced by a freshly sealed one before the
	// next crash. Until then the damaged image is still on media and the
	// next recovery would legitimately re-arbitrate it.
	if _, err := c.FlushNode(0, leafChild); err != nil {
		t.Fatalf("reseal flush: %v", err)
	}

	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("recover after re-admission: %v", err)
	}
	if c.LeafQuarantined(leafChild) {
		t.Fatalf("quarantine resurrected after re-admission: %+v", rep.Degradation.Records)
	}
	for slot := 0; slot < int(geo.LeafCover); slot++ {
		addr := geo.DataAddr(leafChild, slot)
		got, rerr := c.ReadData(1, addr)
		if rerr != nil {
			t.Fatalf("read re-admitted slot %d after recover: %v", slot, rerr)
		}
		if got != expect[addr] {
			t.Fatalf("re-admitted slot %d read back wrong data after recover", slot)
		}
	}
}

// TestQuarantineStateRoundTrip: State/Restore must carry the quarantine
// verdicts byte-identically — bitset, arbitration records (root, cause,
// evidence) and partial re-admission masks — so a snapshotted machine
// resumes with exactly the fences and exactly the typed errors it had.
func TestQuarantineStateRoundTrip(t *testing.T) {
	c, _ := newDegradedSteins(t, false)
	workload(t, c, 4000, 99)
	c.Crash()
	_, leafChild := pickDamagedPair(t, c)
	if _, err := c.Recover(); err != nil {
		t.Fatalf("degraded recover: %v", err)
	}
	geo := &c.Layout().Geo
	// Partial re-admission so the mask is non-trivial in the snapshot.
	waddr := geo.DataAddr(leafChild, 0)
	if err := c.WriteData(1, waddr, pattern(waddr, 9)); err != nil {
		t.Fatalf("partial re-admission write: %v", err)
	}

	encode := func(ctrl *memctrl.Controller) []byte {
		st, err := ctrl.State()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := encode(c)
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := newDegradedSteins(t, false)
	if err := c2.Restore(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b := encode(c2); !bytes.Equal(a, b) {
		t.Fatal("restored controller state not byte-identical to the original")
	}

	rec1, ok1 := c.LeafQuarantineRecord(leafChild)
	rec2, ok2 := c2.LeafQuarantineRecord(leafChild)
	if !ok1 || !ok2 || !reflect.DeepEqual(rec1, rec2) {
		t.Fatalf("arbitration record did not survive the round trip: %+v vs %+v", rec1, rec2)
	}
	if c.ReadmittedSlots(leafChild) != c2.ReadmittedSlots(leafChild) {
		t.Fatal("re-admission mask did not survive the round trip")
	}
	if got, rerr := c2.ReadData(1, waddr); rerr != nil || got != pattern(waddr, 9) {
		t.Fatalf("re-admitted slot on the restored controller: got err %v", rerr)
	}
	var qe *memctrl.QuarantineError
	if _, rerr := c2.ReadData(1, geo.DataAddr(leafChild, 1)); !errors.As(rerr, &qe) {
		t.Fatalf("fenced slot on the restored controller = %v, want *QuarantineError", rerr)
	} else if qe.Cause != rec1.Cause || qe.Evidence != rec1.Evidence {
		t.Fatalf("typed error lost the arbitration: %+v vs record %+v", qe, rec1)
	}
}

// TestDegradedRecoveryOffFailsClosed pins the default behaviour: with
// DegradedRecovery off, media corruption aborts recovery with an integrity
// error instead of healing.
func TestDegradedRecoveryOffFailsClosed(t *testing.T) {
	c, _ := newSteins(t, false)
	workload(t, c, 4000, 1234)
	c.Crash()
	candidates := persistedInteriorNodes(c)
	if len(candidates) == 0 {
		t.Fatal("no persisted interior nodes")
	}
	// Corrupt every persisted interior node: at least one sits on the
	// recovery verification chain, and without degraded mode any one of
	// them must abort the pass.
	for _, ref := range candidates {
		corruptNode(c, ref.Level, ref.Index)
	}
	if _, err := c.Recover(); err == nil {
		t.Fatal("corrupt nodes recovered without error and without degraded mode")
	}
}

// TestReadmissionAtFullBufferRestores pins that a checkpoint restores
// after a re-admission at a full NV buffer. Re-admission must stay
// error-free, so ReconcileAdopted appends without draining even at
// capacity: with every level-1 image damaged, the drains fail, the buffer
// is left full, and re-admitting a leaf whose parent is uncached takes it
// past its bufCap slots. The checkpoint the scheme then writes must
// restore and save back byte for byte.
func TestReadmissionAtFullBufferRestores(t *testing.T) {
	c, p := newDegradedSteins(t, false)
	workload(t, c, 4000, 99)
	leaf := pickQuietLeaf(t, c)
	c.Crash()
	corruptNode(c, 0, leaf)
	if _, err := c.Recover(); err != nil {
		t.Fatalf("degraded recover: %v", err)
	}
	if !c.LeafQuarantined(leaf) {
		t.Fatalf("leaf %d not quarantined", leaf)
	}
	geo := &c.Layout().Geo
	for i := range geo.LevelNodes[1] {
		corruptNode(c, 1, i)
	}
	lines := c.Config().DataBytes / 64
	for i := uint64(0); i < 4000 && p.BufferedEntries() < 8; i++ {
		addr := i * 97 % lines * 64
		if l, _ := geo.LeafOfData(addr); l != leaf {
			c.WriteData(5, addr, pattern(addr, byte(i))) // drains fail; the buffer fills
		}
	}
	if n := p.BufferedEntries(); n != 8 {
		t.Fatalf("buffer holds %d entries after the failing drains, want 8", n)
	}
	// Free a way in the leaf's cache set without touching the buffer, so
	// the adopted leaf's insert displaces no dirty node: drop a clean
	// node, or flush a dirty one whose parent is cached or is the root.
	leafAddr := geo.NodeAddr(0, leaf)
	var free *sit.Node
	c.Meta().EntriesInSet(c.Meta().SetOf(leafAddr), func(e *cache.Entry[*sit.Node]) {
		n := e.Payload
		if free != nil {
			return
		}
		if !e.Dirty || geo.IsTop(n.Level) {
			free = n
			return
		}
		pl, pi, _ := geo.Parent(n.Level, n.Index)
		if _, ok := c.Meta().Probe(geo.NodeAddr(pl, pi)); ok {
			free = n
		}
	})
	if free == nil {
		t.Fatal("no node in the leaf's cache set leaves without buffering")
	}
	if _, err := c.FlushNode(free.Level, free.Index); err != nil {
		t.Fatal(err)
	}
	// The parent's image may have been rewritten since it was damaged;
	// damage it (again) so the re-admitting fetch cannot cache it.
	pl, pi, _ := geo.Parent(0, leaf)
	if _, ok := c.Meta().Probe(geo.NodeAddr(pl, pi)); ok {
		t.Fatal("the leaf's parent is cached; re-admission would not buffer")
	}
	line := c.Device().Peek(geo.NodeAddr(pl, pi))
	line[5] ^= 1
	c.Device().Poke(geo.NodeAddr(pl, pi), line)
	// The write's write-through flush of the skipped leaf drains again,
	// which fails like every drain here; the re-admission itself is done.
	addr := geo.DataAddr(leaf, 0)
	if err := c.WriteData(1, addr, pattern(addr, 7)); err != nil && !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("re-admitting write: %v", err)
	}
	if c.ReadmittedSlots(leaf) == 0 {
		t.Fatal("the write did not re-admit the leaf's slot")
	}
	if _, ok := p.ParentCounterOverride(0, leaf); !ok || p.BufferedEntries() <= 8 {
		t.Fatalf("buffer holds %d entries, none for the re-admitted leaf; test is vacuous", p.BufferedEntries())
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newDegradedSteins(t, false)
	if err := r.Restore(st); err != nil {
		t.Fatalf("Restore of a checkpoint the scheme wrote: %v", err)
	}
	back, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Policy, st.Policy) {
		t.Fatal("restored scheme state saves to other bytes")
	}
}

// TestDegradedLeafHealFromData pins the data-driven heal of a leaf line
// damaged on the media over intact data: a leaf dirty in the crash-time
// cache (healed when recovery regenerates it) and a clean leaf whose flush
// still waits in the NV buffer (healed when its dirty parent regenerates
// from it), for both leaf kinds. Each heal rebuilds the leaf's counters
// from the covered blocks' MACs and tag hints, so the report's Healed list,
// NVM reads and MACs are exact, and every block reads back. In the tamper
// rows one covered block was also flipped with no media evidence: the heal
// stops at that block and the leaf quarantines instead.
func TestDegradedLeafHealFromData(t *testing.T) {
	for _, tc := range []struct {
		name   string
		split  bool
		leaf   uint64 // the first leaf of its kind that the heal reaches
		dirty  bool   // dirty in the crash-time cache, else its flush is buffered
		tamper bool
		reads  uint64
		macs   uint64
	}{
		{"GC/dirty", false, 124, true, false, 694, 829},
		{"GC/clean", false, 491, false, false, 693, 828},
		{"GC/tamper", false, 124, true, true, 681, 825},
		{"SC/dirty", true, 53, true, false, 2833, 1248},
		{"SC/clean", true, 139, false, false, 2832, 1243},
		{"SC/tamper", true, 53, true, true, 2712, 1268},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, p := newDegradedSteins(t, tc.split)
			expect := workload(t, c, 4000, 1234)
			// Writes until some leaf's flush waits in the NV buffer for
			// its uncached parent.
			geo := &c.Layout().Geo
			lines := c.Config().DataBytes / 64
			buffered := func() bool {
				for leaf := range geo.LevelNodes[0] {
					if _, ok := p.ParentCounterOverride(0, leaf); ok {
						return true
					}
				}
				return false
			}
			for i := uint64(0); !buffered(); i++ {
				addr := i * 997 % lines * 64
				expect[addr] = pattern(addr, byte(i))
				if err := c.WriteData(2, addr, expect[addr]); err != nil {
					t.Fatal(err)
				}
			}
			e, cached := c.Meta().Probe(geo.NodeAddr(0, tc.leaf))
			_, pending := p.ParentCounterOverride(0, tc.leaf)
			if dirty := cached && e.Dirty; dirty != tc.dirty || pending == tc.dirty {
				t.Fatalf("leaf %d: dirty %v, flush buffered %v; the case wants dirty %v", tc.leaf, dirty, pending, tc.dirty)
			}
			c.Crash()

			var flipped uint64
			if tc.tamper {
				written := 0
				for i := range int(geo.LeafCover) {
					if flipped = geo.DataAddr(tc.leaf, i); c.Tag(flipped).Written {
						if written++; written == 2 {
							break
						}
					}
				}
				line := c.Device().Peek(flipped)
				line[7] ^= 1
				c.Device().Poke(flipped, line)
			}
			addr := geo.NodeAddr(0, tc.leaf)
			line := c.Device().Peek(addr)
			line[3] ^= 0x10
			c.Device().CorruptLine(addr, line)

			rep, err := c.Recover()
			if err != nil {
				t.Fatalf("degraded recover: %v", err)
			}
			var want []memctrl.NodeRef
			if !tc.tamper {
				want = []memctrl.NodeRef{{Level: 0, Index: tc.leaf}}
			}
			if !reflect.DeepEqual(rep.Degradation.Healed, want) {
				t.Errorf("healed %v, want %v", rep.Degradation.Healed, want)
			}
			if rep.NVMReads != tc.reads || rep.MACOps != tc.macs {
				t.Errorf("recovery charged %d NVM reads, %d MACs; want %d, %d", rep.NVMReads, rep.MACOps, tc.reads, tc.macs)
			}
			if q := c.QuarantinedLeaves(); tc.tamper != (q > 0) || tc.tamper != c.LeafQuarantined(tc.leaf) {
				t.Errorf("%d leaves quarantined, leaf %d among them: %v", q, tc.leaf, c.LeafQuarantined(tc.leaf))
			}
			for a, want := range expect {
				l, _ := geo.LeafOfData(a)
				got, rerr := c.ReadData(1, a)
				switch {
				case c.LeafQuarantined(l):
					if !errors.Is(rerr, memctrl.ErrMediaFault) {
						t.Fatalf("read %#x under quarantine = %v, want a media fault", a, rerr)
					}
				case rerr != nil:
					t.Fatalf("read %#x: %v", a, rerr)
				case got != want:
					t.Fatalf("read %#x: wrong data", a)
				}
			}
		})
	}
}
