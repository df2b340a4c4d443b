package cme

import (
	"slices"
	"testing"
	"testing/quick"

	"steins/internal/crypt"
	"steins/internal/sit"
)

func newEngine() *Engine {
	return &Engine{Key: crypt.NewKey(1), OTP: crypt.FastPad{}, MAC: crypt.SipMAC{}}
}

func TestApplyRoundTrip(t *testing.T) {
	e := newEngine()
	f := func(data [64]byte, addr, ctr uint64) bool {
		addr &^= 63
		buf := data
		e.Apply(&buf, addr, ctr)
		e.Apply(&buf, addr, ctr)
		return buf == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	e := newEngine()
	var buf [64]byte
	e.Apply(&buf, 64, 1)
	if buf == ([64]byte{}) {
		t.Fatal("encryption left plaintext unchanged")
	}
}

func TestDictionaryAttackResistance(t *testing.T) {
	// §II-B: the same plaintext at different addresses or counters yields
	// different ciphertexts.
	e := newEngine()
	var a, b, c [64]byte
	e.Apply(&a, 0, 1)
	e.Apply(&b, 64, 1)
	e.Apply(&c, 0, 2)
	if a == b || a == c {
		t.Fatal("identical ciphertexts across address/counter variation")
	}
}

func TestTagVerifyGC(t *testing.T) {
	e := newEngine()
	ct := [64]byte{1, 2, 3}
	tag := e.TagGC(&ct, 128, 77)
	if !e.Verify(&ct, 128, 77, tag) {
		t.Fatal("valid tag rejected")
	}
	if e.Verify(&ct, 128, 78, tag) {
		t.Fatal("wrong counter accepted")
	}
	if e.Verify(&ct, 192, 77, tag) {
		t.Fatal("wrong address accepted")
	}
	ct[5] ^= 1
	if e.Verify(&ct, 128, 77, tag) {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestVerifyUnwrittenRejected(t *testing.T) {
	e := newEngine()
	var ct [64]byte
	if e.Verify(&ct, 0, 0, Tag{}) {
		t.Fatal("unwritten tag verified")
	}
}

// packSlot fills slot i of l the way the controller's reader does: the
// line into its message, then Pack under the block's address and tag.
func packSlot(l *Leaf, i int, ct *[64]byte, addr uint64, tag Tag) {
	*l.Line(i) = *ct
	l.Pack(i, addr, tag)
}

// recoverGCSerial is the general-counter slot recovery written one block
// at a time: cand checked with one Sum64, then on a miss the search over
// steps hint-congruent counters from the hint. It returns the counter,
// the MACs of both steps and ok.
func recoverGCSerial(e *Engine, ct *[64]byte, addr uint64, tag Tag, cand uint64, steps int) (uint64, uint64, bool) {
	var msg [sit.DataMACMsgSize]byte
	sit.PutDataMACMsg(&msg, addr, ct, cand)
	if e.MAC.Sum64(e.Key, msg[:]) == tag.MAC {
		return cand, 1, true
	}
	ctr, tried, ok := crypt.SearchCounter(e.MAC, e.Key, msg[:], tag.Hint, GCHintMask+1, steps, tag.MAC)
	return ctr, 1 + uint64(tried), ok
}

// recoverSCSerial is the split-counter slot recovery written one block at
// a time: the hinted counter checked with one Sum64, then on a miss the
// 64-minor search.
func recoverSCSerial(e *Engine, ct *[64]byte, addr uint64, tag Tag) (uint64, uint8, uint64, bool) {
	var msg [sit.DataMACMsgSize]byte
	sit.PutDataMACMsg(&msg, addr, ct, tag.Hint)
	major := tag.Hint >> 6
	if e.MAC.Sum64(e.Key, msg[:]) == tag.MAC {
		minor := uint8(tag.Hint & 63)
		return major, minor, uint64(minor) + 1, true
	}
	ctr, tried, ok := crypt.SearchCounter(e.MAC, e.Key, msg[:], major<<6, 1, 64, tag.MAC)
	if !ok {
		return 0, 0, uint64(tried), false
	}
	return major, uint8(ctr & 63), uint64(tried), true
}

// recoverGC recovers one general block as slot 0 of a fresh leaf: the
// candidate over stale checked in the batch, then RecoverSlotGC.
func recoverGC(e *Engine, ct *[64]byte, addr uint64, tag Tag, stale uint64, steps int) (uint64, int, bool) {
	var l Leaf
	packSlot(&l, 0, ct, addr, tag)
	l.SetCandidate(0, CandidateGC(stale, tag.Hint))
	e.CheckHints(&l, l.Written())
	return e.RecoverSlotGC(&l, 0, steps)
}

// recoverSC recovers one split block as slot 0 of a fresh leaf.
func recoverSC(e *Engine, ct *[64]byte, addr uint64, tag Tag) (uint64, uint8, uint64, bool) {
	var l Leaf
	packSlot(&l, 0, ct, addr, tag)
	e.CheckHints(&l, l.Written())
	return e.RecoverSlotSC(&l, 0)
}

func TestRecoverCounterGC(t *testing.T) {
	e := newEngine()
	ct := [64]byte{9}
	for _, tc := range []struct{ stale, actual uint64 }{
		{0, 0}, {0, 5}, {100, 100}, {100, 165}, {65530, 65540}, // hint wraps 16-bit boundary
		{1 << 20, 1<<20 + GCHintMask},
	} {
		tag := e.TagGC(&ct, 64, tc.actual)
		got, tried, ok := recoverGC(e, &ct, 64, tag, tc.stale, 0)
		if !ok || got != tc.actual || tried != 0 {
			t.Errorf("stale=%d actual=%d: got %d, %d searched, ok=%v", tc.stale, tc.actual, got, tried, ok)
		}
	}
}

// TestRecoverCounterGCUnwritten: an unwritten block never joins the
// written list, so no pass checks or recovers it.
func TestRecoverCounterGCUnwritten(t *testing.T) {
	var l Leaf
	var ct [64]byte
	packSlot(&l, 0, &ct, 64, Tag{})
	packSlot(&l, 1, &ct, 128, newEngine().TagGC(&ct, 128, 3))
	packSlot(&l, 2, &ct, 192, Tag{})
	if w := l.Written(); len(w) != 1 || w[0] != 1 {
		t.Fatalf("written slots %v, want [1]", w)
	}
	l.Reset()
	if w := l.Written(); len(w) != 0 {
		t.Fatalf("written slots %v after Reset", w)
	}
}

func TestRecoverCounterGCDetectsTamper(t *testing.T) {
	e := newEngine()
	ct := [64]byte{9}
	tag := e.TagGC(&ct, 64, 50)
	ct[0] ^= 1 // attacker flips a ciphertext bit
	if _, _, ok := recoverGC(e, &ct, 64, tag, 40, 4); ok {
		t.Fatal("tampered block recovered successfully")
	}
}

func TestRecoverCounterGCReplayYieldsOldCounter(t *testing.T) {
	// A replayed (data, tag) pair recovers, but to the OLD counter; the
	// level-0 increment check catches the shortfall (§III-H).
	e := newEngine()
	old := [64]byte{1}
	oldTag := e.TagGC(&old, 64, 10)
	got, _, ok := recoverGC(e, &old, 64, oldTag, 8, 0)
	if !ok || got != 10 {
		t.Fatalf("replay recovery = %d ok=%v, want old counter 10", got, ok)
	}
}

func TestRecoverCounterSC(t *testing.T) {
	e := newEngine()
	ct := [64]byte{3}
	for _, tc := range []struct {
		major uint64
		minor uint8
	}{{0, 0}, {0, 63}, {7, 13}, {1 << 30, 1}} {
		enc := tc.major<<6 | uint64(tc.minor)
		tag := e.TagSC(&ct, 128, enc)
		major, minor, macOps, ok := recoverSC(e, &ct, 128, tag)
		if !ok || major != tc.major || minor != tc.minor {
			t.Errorf("(%d,%d): got (%d,%d) ok=%v", tc.major, tc.minor, major, minor, ok)
		}
		if macOps != uint64(tc.minor)+1 {
			t.Errorf("(%d,%d): macOps = %d, want minor+1 = %d", tc.major, tc.minor, macOps, tc.minor+1)
		}
	}
}

// searchSCReference is the Osiris search RecoverSlotSC models, written
// as plainly as possible: one Sum64 per minor from 0 upward under the tag
// hint's major.
func searchSCReference(e *Engine, ct *[64]byte, addr uint64, tag Tag) (uint64, uint8, uint64, bool) {
	major := tag.Hint >> 6
	var msg [sit.DataMACMsgSize]byte
	for m := uint64(0); m < 64; m++ {
		sit.PutDataMACMsg(&msg, addr, ct, major<<6|m)
		if e.MAC.Sum64(e.Key, msg[:]) == tag.MAC {
			return major, uint8(m), m + 1, true
		}
	}
	return 0, 0, 64, false
}

// TestRecoverCounterSCMatchesSearch holds the hint-first recovery to the
// plain 64-candidate search: same (major, minor, macOps, ok) for every
// minor on an intact block, and when the ciphertext, the hint's minor or
// the hint's major was tampered with.
func TestRecoverCounterSCMatchesSearch(t *testing.T) {
	e := newEngine()
	const addr, major = 320, 23
	check := func(name string, ct *[64]byte, tag Tag) {
		t.Helper()
		maj, mi, ops, ok := recoverSC(e, ct, addr, tag)
		wmaj, wmi, wops, wok := searchSCReference(e, ct, addr, tag)
		if maj != wmaj || mi != wmi || ops != wops || ok != wok {
			t.Errorf("%s: got (%d, %d, %d, %v), search (%d, %d, %d, %v)",
				name, maj, mi, ops, ok, wmaj, wmi, wops, wok)
		}
	}
	for minor := uint64(0); minor < 64; minor++ {
		ct := [64]byte{byte(minor), 0x5a}
		tag := e.TagSC(&ct, addr, major<<6|minor)
		check("intact", &ct, tag)

		flipped := ct
		flipped[40] ^= 0x08
		check("tampered ciphertext", &flipped, tag)

		wrongMinor := tag
		wrongMinor.Hint = major<<6 | (minor+1+minor%7)&63
		check("tampered hint minor", &ct, wrongMinor)

		wrongMajor := tag
		wrongMajor.Hint ^= 1 << 6
		check("tampered hint major", &ct, wrongMajor)
	}
}

func TestRecoverCounterSCDetectsTamper(t *testing.T) {
	e := newEngine()
	ct := [64]byte{3}
	tag := e.TagSC(&ct, 128, 5<<6|9)
	ct[1] ^= 0x80
	if maj, mi, ops, ok := recoverSC(e, &ct, 128, tag); ok {
		t.Fatalf("tampered SC block recovered as (%d, %d, %d, true)", maj, mi, ops)
	}
}

// TestRecoverCounterSCUnwritten: an unwritten slot the caller lists
// anyway is checked against its empty tag and, on the miss, searched in
// full; it never recovers.
func TestRecoverCounterSCUnwritten(t *testing.T) {
	e := newEngine()
	var l Leaf
	var ct [64]byte
	packSlot(&l, 0, &ct, 0, Tag{})
	e.CheckHints(&l, []int{0})
	if maj, mi, ops, ok := e.RecoverSlotSC(&l, 0); ok || ops != 64 {
		t.Fatalf("unwritten SC slot = (%d, %d, %d, %v), want a 64-MAC miss", maj, mi, ops, ok)
	}
}

// TestSearchCounterGC pins the base-less general-counter search behind a
// missed candidate: candidates run from the hint upward in steps of the
// hint modulus, a hit at step k costs k+1 MACs, a miss costs exactly the
// cap, and a verified candidate searches nothing.
func TestSearchCounterGC(t *testing.T) {
	e := newEngine()
	ct := [64]byte{4, 2}
	const hint = 0x1234
	const wrong = 1 << 40 // a candidate no tag here verifies
	for _, tc := range []struct {
		name  string
		tag   Tag
		cand  uint64
		steps int
		ctr   uint64
		tried int
		ok    bool
	}{
		{"hit at the hint", e.TagGC(&ct, 192, hint), wrong, 8, hint, 1, true},
		{"hit at step 5", e.TagGC(&ct, 192, 5<<16|hint), wrong, 8, 5<<16 | hint, 6, true},
		{"hit at the last step", e.TagGC(&ct, 192, 7<<16|hint), wrong, 8, 7<<16 | hint, 8, true},
		{"miss at the cap", e.TagGC(&ct, 192, 8<<16|hint), wrong, 8, 0, 8, false},
		{"no steps", e.TagGC(&ct, 192, hint), wrong, 0, 0, 0, false},
		{"verified candidate", e.TagGC(&ct, 192, 9<<16|hint), 9<<16 | hint, 8, 9<<16 | hint, 0, true},
	} {
		var l Leaf
		packSlot(&l, 0, &ct, 192, tc.tag)
		l.SetCandidate(0, tc.cand)
		e.CheckHints(&l, l.Written())
		ctr, tried, ok := e.RecoverSlotGC(&l, 0, tc.steps)
		if ctr != tc.ctr || tried != tc.tried || ok != tc.ok {
			t.Errorf("%s: (%#x, %d, %v), want (%#x, %d, %v)", tc.name, ctr, tried, ok, tc.ctr, tc.tried, tc.ok)
		}
	}
}

// plainMAC hides the MAC's counter-search fast path, so the engine's
// searches over it take the one-Sum64-per-candidate loop.
type plainMAC struct{ crypt.MAC }

// TestCounterSearchFastPathMatchesSum64 runs every split-counter minor and
// a spread of general-counter steps, each on an intact and on a tampered
// ciphertext, through an engine on SipMAC (prefix-cached search) and one
// on a wrapper that hides the fast path: every (counter, macOps, ok) must
// agree.
func TestCounterSearchFastPathMatchesSum64(t *testing.T) {
	fast := newEngine()
	slow := newEngine()
	slow.MAC = plainMAC{crypt.SipMAC{}}
	for _, tamper := range []bool{false, true} {
		for minor := uint64(0); minor < 64; minor++ {
			ct := [64]byte{byte(minor), 9}
			tag := fast.TagSC(&ct, 256, 11<<6|minor)
			gtag := fast.TagGC(&ct, 256, minor<<16|0x77)
			if tamper {
				ct[17] ^= 0x40
			}
			// A wrong hint minor sends the split slot to its search.
			tag.Hint = 11<<6 | (minor+1)&63
			maj, mi, ops, ok := recoverSC(fast, &ct, 256, tag)
			wmaj, wmi, wops, wok := recoverSC(slow, &ct, 256, tag)
			if maj != wmaj || mi != wmi || ops != wops || ok != wok {
				t.Fatalf("SC minor %d tamper %v: fast (%d, %d, %d, %v), Sum64 loop (%d, %d, %d, %v)",
					minor, tamper, maj, mi, ops, ok, wmaj, wmi, wops, wok)
			}
			if ok == tamper || (ok && (maj != 11 || uint64(mi) != minor || ops != minor+1)) {
				t.Fatalf("SC minor %d tamper %v: (%d, %d, %d, %v)", minor, tamper, maj, mi, ops, ok)
			}

			// A stale base one period up misses, so the GC slot searches.
			ctr, gops, gok := recoverGC(fast, &ct, 256, gtag, minor<<16|0x78, 64)
			wctr, wgops, wgok := recoverGC(slow, &ct, 256, gtag, minor<<16|0x78, 64)
			if ctr != wctr || gops != wgops || gok != wgok {
				t.Fatalf("GC step %d tamper %v: fast (%#x, %d, %v), Sum64 loop (%#x, %d, %v)",
					minor, tamper, ctr, gops, gok, wctr, wgops, wgok)
			}
			if gok == tamper || (gok && (ctr != minor<<16|0x77 || gops != int(minor)+1)) {
				t.Fatalf("GC step %d tamper %v: (%#x, %d, %v)", minor, tamper, ctr, gops, gok)
			}
		}
	}
}

func TestGCRecoveryPropertyRandomCounters(t *testing.T) {
	e := newEngine()
	f := func(data [64]byte, stale uint64, delta uint16) bool {
		stale &= 1<<50 - 1
		actual := stale + uint64(delta)%GCHintMask // within hint window
		ct := data
		e.Apply(&ct, 64, actual)
		tag := e.TagGC(&ct, 64, actual)
		got, _, ok := recoverGC(e, &ct, 64, tag, stale, 0)
		return ok && got == actual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedHintCheckMatchesSerial holds the batched check (CheckHints,
// then RecoverSlotSC or RecoverSlotGC per slot) to the one-block-at-a-time
// references, slot by slot, on leaves that mix every case a recovery
// meets: a hit, a wrong hint (split) or stale base (general) that the
// search still verifies, tampered ciphertext, a tampered tag MAC, and
// unwritten slots (not listed, and listed anyway). The written counts
// leave a final group of fewer than eight slots, and the engines cover the
// AVX-512 or generic SipHash path, a MAC with no eight-lane path
// (HMAC-SHA-256) and SipHash behind a wrapper.
func TestBatchedHintCheckMatchesSerial(t *testing.T) {
	const major, base = 41, 0x4000
	for _, mac := range []crypt.MAC{crypt.SipMAC{}, crypt.HMACSHA256{}, plainMAC{crypt.SipMAC{}}} {
		e := newEngine()
		e.MAC = mac
		for _, split := range []bool{true, false} {
			for _, stride := range []int{1, 2, 3, 5, 7, 64} {
				var leaf Leaf
				var listed []int
				var cases [64]string
				var cts [64][64]byte
				var cands [64]uint64
				for i := 0; i < 64; i++ {
					addr := uint64(base + 64*i)
					cts[i] = [64]byte{byte(i), byte(stride), 0xc3}
					minor := uint64(i*stride+i/3) & 63
					ctr := major<<6 | minor
					var tag Tag
					if split {
						tag = e.TagSC(&cts[i], addr, ctr)
					} else {
						ctr = uint64(i%4)<<16 | minor
						tag = e.TagGC(&cts[i], addr, ctr)
					}
					stale := ctr - minor
					switch cases[i] = []string{"hit", "wrong hint", "tampered ciphertext", "tampered tag MAC", "unwritten", "unwritten, listed"}[i%6]; cases[i] {
					case "wrong hint":
						if split {
							tag.Hint = major<<6 | (minor+1+uint64(i)%5)&63
						} else {
							stale = ctr + 1
						}
					case "tampered ciphertext":
						cts[i][i%64] ^= 0x10
					case "tampered tag MAC":
						tag.MAC ^= 1 << uint(i)
					case "unwritten", "unwritten, listed":
						tag = Tag{}
					}
					packSlot(&leaf, i, &cts[i], addr, tag)
					cands[i] = tag.Hint
					if !split {
						cands[i] = CandidateGC(stale, tag.Hint)
						leaf.SetCandidate(i, cands[i])
					}
					if i%stride == 0 && cases[i] != "unwritten" {
						listed = append(listed, i)
					}
				}
				if len(listed)%8 == 0 && len(listed) > 8 {
					listed = listed[:len(listed)-3] // end on a partial group
				}
				e.CheckHints(&leaf, listed)
				// Only an intact block under its true candidate may pass
				// the check. A check that missed everywhere would still
				// match the serial results through the search; this pins
				// that it hits.
				for _, i := range listed {
					if hit := leaf.hits>>uint(i)&1 != 0; hit != (cases[i] == "hit") {
						t.Errorf("%s split %v stride %d slot %d (%s): check hit = %v", mac.Name(), split, stride, i, cases[i], hit)
					}
				}
				for i := 0; i < 64; i++ {
					if !split && !slices.Contains(listed, i) {
						// An unchecked general slot counts as a missed
						// candidate; the passes list every written slot.
						continue
					}
					addr := uint64(base + 64*i)
					var got, want [4]uint64
					if split {
						maj, mi, ops, ok := e.RecoverSlotSC(&leaf, i)
						got = [4]uint64{maj, uint64(mi), ops, b2u(ok)}
						maj, mi, ops, ok = recoverSCSerial(e, &cts[i], addr, leaf.Tag[i])
						want = [4]uint64{maj, uint64(mi), ops, b2u(ok)}
					} else {
						ctr, tried, ok := e.RecoverSlotGC(&leaf, i, 8)
						got = [4]uint64{ctr, 1 + uint64(tried), b2u(ok)}
						ctr, ops, ok := recoverGCSerial(e, &cts[i], addr, leaf.Tag[i], cands[i], 8)
						want = [4]uint64{ctr, ops, b2u(ok)}
					}
					if got != want {
						t.Errorf("%s split %v stride %d slot %d (%s, %d listed): batched %v, serial %v",
							mac.Name(), split, stride, i, cases[i], len(listed), got, want)
					}
				}
			}
		}
	}
}

// TestSplitLeafMsgForgetsCheck: repacking a slot after a CheckHints drops
// the slot's verified candidate, so a stale check never vouches for new
// contents.
func TestSplitLeafMsgForgetsCheck(t *testing.T) {
	e := newEngine()
	var leaf Leaf
	ct := [64]byte{7}
	packSlot(&leaf, 3, &ct, 192, e.TagSC(&ct, 192, 9<<6|4))
	e.CheckHints(&leaf, []int{3})
	tag := leaf.Tag[3]
	ct[0] ^= 1
	packSlot(&leaf, 3, &ct, 192, tag)
	if maj, mi, ops, ok := e.RecoverSlotSC(&leaf, 3); ok {
		t.Fatalf("repacked tampered slot recovered as (%d, %d, %d, true)", maj, mi, ops)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func BenchmarkApply(b *testing.B) {
	e := newEngine()
	var buf [64]byte
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.Apply(&buf, 64, uint64(i))
	}
}

func BenchmarkRecoverCounterSC(b *testing.B) {
	e := newEngine()
	ct := [64]byte{3}
	tag := e.TagSC(&ct, 128, 5<<6|63) // worst case: minor 63
	for i := 0; i < b.N; i++ {
		recoverSC(e, &ct, 128, tag)
	}
}

// BenchmarkRecoverSplitLeaf recovers a fully written split leaf's 64
// minors through the batched hinted check and through the serial
// reference one slot at a time.
func BenchmarkRecoverSplitLeaf(b *testing.B) {
	e := newEngine()
	var leaf Leaf
	var cts [64][64]byte
	for i := range cts {
		cts[i] = [64]byte{byte(i)}
		packSlot(&leaf, i, &cts[i], uint64(64*i), e.TagSC(&cts[i], uint64(64*i), 3<<6|uint64(i)))
	}
	slots := leaf.Written()
	b.Run("batched", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			e.CheckHints(&leaf, slots)
			for _, i := range slots {
				e.RecoverSlotSC(&leaf, i)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for _, i := range slots {
				recoverSCSerial(e, &cts[i], uint64(64*i), leaf.Tag[i])
			}
		}
	})
}
