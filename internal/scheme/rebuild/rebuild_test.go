package rebuild_test

import (
	"errors"
	"testing"

	"steins/internal/counter"
	"steins/internal/memctrl"
	"steins/internal/scheme/rebuild"
	"steins/internal/scheme/scue"
	"steins/internal/sit"
)

// damage names what happens to one covered data block (or the leaf's own
// line) before LeafFromData runs.
type damage int

const (
	intact    damage = iota
	mediaData        // the block's ciphertext lost to a recorded media fault
	mediaBoth        // that, and the leaf's stale image lost the same way
	tamper           // the ciphertext flipped with no media evidence
	forgeMaj         // the block's tag rewritten under another major
)

// leafCase is one LeafFromData run over a crafted leaf 0.
type leafCase struct {
	name      string
	damage    damage
	slot      int  // the damaged block
	staleLost bool // the stale image's counters are off (a flipped image)
	strict    bool
	// Outcome.
	err          error  // errors.Is target; nil for success
	reads        uint64 // NVM reads up to an error; 0: every covered block
	macs         uint64
	unpinnable   int
	attackShaped int
	cause        memctrl.QuarantineCause // CauseUnknown: not quarantined
	major        uint64                  // split leaves: the rebuilt major
}

// craftLeaf writes leaf 0's covered blocks straight to the device under
// the given encryption counters (0: never written) and returns a stale
// image carrying exactly those counters.
func craftLeaf(t *testing.T, c *memctrl.Controller, ctrs []uint64) *sit.Node {
	t.Helper()
	geo := &c.Layout().Geo
	eng := c.Engine()
	stale := &sit.Node{Level: 0, Index: 0, IsSplit: geo.SplitLeaf}
	for i, ctr := range ctrs {
		if ctr == 0 {
			continue
		}
		daddr := geo.DataAddr(0, i)
		var ct [64]byte
		for j := range ct {
			ct[j] = byte(i*7 + j)
		}
		c.Device().Poke(daddr, ct)
		if geo.SplitLeaf {
			c.SetTag(daddr, eng.TagSC(&ct, daddr, ctr))
			stale.Split.Major = ctr >> counter.MinorBits
			stale.Split.Minor[i] = uint8(ctr & (1<<counter.MinorBits - 1))
		} else {
			c.SetTag(daddr, eng.TagGC(&ct, daddr, ctr))
			stale.SetCounter(i, ctr)
		}
	}
	return stale
}

// runLeafCase crafts leaf 0 under ctrs on a fresh controller, applies the
// case's damage, rebuilds the leaf from its data and checks the outcome.
// It returns the rebuilt node (nil on error).
func runLeafCase(t *testing.T, split bool, ctrs []uint64, tc leafCase) *sit.Node {
	t.Helper()
	c := memctrl.New(memctrl.DefaultConfig(64<<10, split), scue.Factory)
	geo := &c.Layout().Geo
	stale := craftLeaf(t, c, ctrs)
	if tc.staleLost {
		if split {
			stale = &sit.Node{Level: 0, Index: 0, IsSplit: true}
			stale.Split.Major = 99
		} else {
			for i := range ctrs {
				stale.SetCounter(i, stale.Counter(i)+1)
			}
		}
	}
	daddr := geo.DataAddr(0, tc.slot)
	line := c.Device().Peek(daddr)
	line[5] ^= 0x20
	switch tc.damage {
	case mediaBoth:
		leafAddr := geo.NodeAddr(0, 0)
		c.Device().CorruptLine(leafAddr, c.Device().Peek(leafAddr))
		fallthrough
	case mediaData:
		c.Device().CorruptLine(daddr, line)
	case tamper:
		c.Device().Poke(daddr, line)
	case forgeMaj:
		ct := [64]byte(c.Device().Peek(daddr))
		forged := tc.major<<counter.MinorBits | 1
		c.SetTag(daddr, c.Engine().TagSC(&ct, daddr, forged))
	}

	var rep memctrl.RecoveryReport
	var rec rebuild.LeafRecovery
	node, err := rebuild.LeafFromData(c, &rep, &rec, 0, stale, !tc.strict)
	if tc.err != nil {
		if !errors.Is(err, tc.err) {
			t.Fatalf("LeafFromData = %v, want %v", err, tc.err)
		}
	} else if err != nil {
		t.Fatalf("LeafFromData: %v", err)
	}
	want := tc.reads
	if want == 0 {
		want = geo.LeafCover
	}
	if rep.NVMReads != want {
		t.Errorf("charged %d NVM reads, want %d", rep.NVMReads, want)
	}
	if rep.MACOps != tc.macs {
		t.Errorf("charged %d MACs, want %d", rep.MACOps, tc.macs)
	}
	if rec.Unpinnable != tc.unpinnable || rec.AttackShaped != tc.attackShaped {
		t.Errorf("unpinnable %d, attack-shaped %d; want %d, %d", rec.Unpinnable, rec.AttackShaped, tc.unpinnable, tc.attackShaped)
	}
	qrec, quarantined := c.LeafQuarantineRecord(0)
	if quarantined != (tc.cause != memctrl.CauseUnknown) || quarantined && qrec.Cause != tc.cause {
		t.Errorf("leaf 0 quarantined %v (%+v), want cause %v", quarantined, qrec, tc.cause)
	}
	return node
}

// TestLeafFromDataGC pins LeafFromData's per-slot outcomes on a general
// leaf: each written block proven by the candidate over its stale counter
// (one MAC), by the base-less hint-congruent search when that candidate
// fails (one MAC plus the search's tries), or pinned from the hint when no
// counter verifies. Slot 2's counter sits three hint periods up, so the
// search reaches it on its fourth try and a failing block costs the whole
// 4096-step search.
func TestLeafFromDataGC(t *testing.T) {
	const far = 3<<16 | 9
	ctrs := []uint64{0, 5, far, 1, 0, 7, 2, 4}
	const written = 6
	for _, tc := range []leafCase{
		{name: "stale candidate", macs: written},
		{name: "base-less search", staleLost: true, macs: 2*(written-1) + 1 + 4},
		{name: "hint-pinned media", damage: mediaData, slot: 2, macs: written + 4096,
			cause: memctrl.CauseMediaECC},
		{name: "hint-pinned media, base lost", damage: mediaBoth, slot: 2, macs: written + 4096,
			unpinnable: 1, cause: memctrl.CauseMediaECC},
		{name: "no evidence", damage: tamper, slot: 2, macs: written + 4096,
			attackShaped: 1, cause: memctrl.CauseAmbiguous},
		{name: "strict", damage: tamper, slot: 2, strict: true, macs: 2 + 4096, reads: 3, err: memctrl.ErrTamper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := runLeafCase(t, false, ctrs, tc)
			if node == nil {
				return
			}
			for i, want := range ctrs {
				if got := node.Counter(i); got != want {
					t.Errorf("slot %d: counter %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestLeafFromDataSC pins LeafFromData's per-slot outcomes on a split
// leaf: every written block's major comes from its tag, its minor from the
// hinted check (minor+1 modelled MACs) or, when the ciphertext verifies
// under no minor, from the hint's low bits (64 MACs). The stale image plays
// no part, so a split leaf is never unpinnable; tags that disagree on the
// major are replay-shaped.
func TestLeafFromDataSC(t *testing.T) {
	const major = 3
	ctrs := make([]uint64, counter.SplitArity)
	minors := map[int]uint64{0: 5, 2: 63, 3: 0, 10: 17, 40: 1}
	var macs uint64
	for i, m := range minors {
		ctrs[i] = major<<counter.MinorBits | m
		macs += m + 1
	}
	for _, tc := range []leafCase{
		{name: "hinted check", macs: macs, major: major},
		{name: "stale image lost", staleLost: true, macs: macs, major: major},
		{name: "hint-pinned media", damage: mediaData, slot: 0, macs: macs - 6 + 64,
			cause: memctrl.CauseMediaECC, major: major},
		{name: "hint-pinned media, base lost", damage: mediaBoth, slot: 10, macs: macs - 18 + 64,
			cause: memctrl.CauseMediaECC, major: major},
		{name: "no evidence", damage: tamper, slot: 10, macs: macs - 18 + 64,
			attackShaped: 1, cause: memctrl.CauseAmbiguous, major: major},
		{name: "strict", damage: tamper, slot: 10, strict: true, macs: 6 + 64 + 1 + 64, reads: 11, err: memctrl.ErrTamper},
		{name: "inconsistent majors", damage: forgeMaj, slot: 40, macs: macs - 2,
			attackShaped: 1, cause: memctrl.CauseReplayShaped, major: major + 1},
		{name: "inconsistent majors strict", damage: forgeMaj, slot: 40, strict: true,
			macs: macs - 2, reads: 41, err: memctrl.ErrReplay, major: major + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := runLeafCase(t, true, ctrs, tc)
			if node == nil {
				return
			}
			if node.Split.Major != tc.major {
				t.Errorf("major %d, want %d", node.Split.Major, tc.major)
			}
			for i, want := range ctrs {
				if i == tc.slot && tc.damage == forgeMaj {
					continue
				}
				if got := uint64(node.Split.Minor[i]); got != want&(1<<counter.MinorBits-1) {
					t.Errorf("slot %d: minor %d, want %d", i, got, want&(1<<counter.MinorBits-1))
				}
			}
		})
	}
}
