package cme

import (
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

func TestRecoverCounterGC(t *testing.T) {
	e := newEngine()
	ct := [64]byte{9}
	for _, tc := range []struct{ stale, actual uint64 }{
		{0, 0}, {0, 5}, {100, 100}, {100, 165}, {65530, 65540}, // hint wraps 16-bit boundary
		{1 << 20, 1<<20 + GCHintMask},
	} {
		tag := e.TagGC(&ct, 64, tc.actual)
		got, macOps, ok := e.RecoverCounterGC(&ct, 64, tag, tc.stale)
		if !ok || got != tc.actual {
			t.Errorf("stale=%d actual=%d: got %d ok=%v", tc.stale, tc.actual, got, ok)
		}
		if macOps != 1 {
			t.Errorf("macOps = %d, want 1", macOps)
		}
		// The message form agrees whatever counter the message was packed
		// under.
		var msg [sit.DataMACMsgSize]byte
		sit.PutDataMACMsg(&msg, 64, &ct, ^tc.actual)
		if got, macOps, ok := e.RecoverCounterGCMsg(&msg, tag, tc.stale); !ok || got != tc.actual || macOps != 1 {
			t.Errorf("stale=%d actual=%d: message form got %d, %d MACs, ok=%v", tc.stale, tc.actual, got, macOps, ok)
		}
	}
}

func TestRecoverCounterGCUnwritten(t *testing.T) {
	e := newEngine()
	var ct [64]byte
	got, _, ok := e.RecoverCounterGC(&ct, 64, Tag{}, 42)
	if !ok || got != 42 {
		t.Fatalf("unwritten block recovery = %d ok=%v, want stale 42", got, ok)
	}
}

func TestRecoverCounterGCDetectsTamper(t *testing.T) {
	e := newEngine()
	ct := [64]byte{9}
	tag := e.TagGC(&ct, 64, 50)
	ct[0] ^= 1 // attacker flips a ciphertext bit
	if _, _, ok := e.RecoverCounterGC(&ct, 64, tag, 40); ok {
		t.Fatal("tampered block recovered successfully")
	}
}

func TestRecoverCounterGCReplayYieldsOldCounter(t *testing.T) {
	// A replayed (data, tag) pair recovers, but to the OLD counter; the
	// level-0 increment check catches the shortfall (§III-H).
	e := newEngine()
	old := [64]byte{1}
	oldTag := e.TagGC(&old, 64, 10)
	got, _, ok := e.RecoverCounterGC(&old, 64, oldTag, 8)
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
		tag := e.TagSC(&ct, 128, enc, tc.major)
		major, minor, macOps, ok := e.RecoverCounterSC(&ct, 128, tag, 0)
		if !ok || major != tc.major || minor != tc.minor {
			t.Errorf("(%d,%d): got (%d,%d) ok=%v", tc.major, tc.minor, major, minor, ok)
		}
		if macOps != uint64(tc.minor)+1 {
			t.Errorf("(%d,%d): macOps = %d, want minor+1 = %d", tc.major, tc.minor, macOps, tc.minor+1)
		}
	}
}

// searchSCReference is the Osiris search RecoverCounterSC models, written
// as plainly as possible: one Sum64 per minor from 0 upward under the tag
// hint's major.
func searchSCReference(e *Engine, ct *[64]byte, addr uint64, tag Tag, staleMinor uint8) (uint64, uint8, uint64, bool) {
	if !tag.Written {
		return 0, staleMinor, 0, true
	}
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
// the hint's major was tampered with, and for an unwritten tag.
func TestRecoverCounterSCMatchesSearch(t *testing.T) {
	e := newEngine()
	const addr, major = 320, 23
	check := func(name string, ct *[64]byte, tag Tag) {
		t.Helper()
		maj, mi, ops, ok := e.RecoverCounterSC(ct, addr, tag, 5)
		wmaj, wmi, wops, wok := searchSCReference(e, ct, addr, tag, 5)
		if maj != wmaj || mi != wmi || ops != wops || ok != wok {
			t.Errorf("%s: got (%d, %d, %d, %v), search (%d, %d, %d, %v)",
				name, maj, mi, ops, ok, wmaj, wmi, wops, wok)
		}
	}
	for minor := uint64(0); minor < 64; minor++ {
		ct := [64]byte{byte(minor), 0x5a}
		tag := e.TagSC(&ct, addr, major<<6|minor, major)
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
	var ct [64]byte
	check("unwritten", &ct, Tag{})
}

func TestRecoverCounterSCDetectsTamper(t *testing.T) {
	e := newEngine()
	ct := [64]byte{3}
	tag := e.TagSC(&ct, 128, 5<<6|9, 5)
	ct[1] ^= 0x80
	if _, _, _, ok := e.RecoverCounterSC(&ct, 128, tag, 0); !ok {
		return
	}
	t.Fatal("tampered SC block recovered successfully")
}

func TestRecoverCounterSCUnwritten(t *testing.T) {
	e := newEngine()
	var ct [64]byte
	major, minor, _, ok := e.RecoverCounterSC(&ct, 0, Tag{}, 7)
	if !ok || major != 0 || minor != 7 {
		t.Fatalf("unwritten SC recovery = (%d,%d) ok=%v", major, minor, ok)
	}
}

// TestSearchCounterGC pins the stale-base-free general-counter search:
// candidates run from the hint upward in steps of the hint modulus, a hit
// at step k costs k+1 MACs, a miss costs exactly the cap, and an unwritten
// tag costs none.
func TestSearchCounterGC(t *testing.T) {
	e := newEngine()
	ct := [64]byte{4, 2}
	const hint = 0x1234
	for _, tc := range []struct {
		name   string
		tag    Tag
		steps  int
		ctr    uint64
		macOps uint64
		ok     bool
	}{
		{"hit at the hint", e.TagGC(&ct, 192, hint), 8, hint, 1, true},
		{"hit at step 5", e.TagGC(&ct, 192, 5<<16|hint), 8, 5<<16 | hint, 6, true},
		{"hit at the last step", e.TagGC(&ct, 192, 7<<16|hint), 8, 7<<16 | hint, 8, true},
		{"miss at the cap", e.TagGC(&ct, 192, 8<<16|hint), 8, 0, 8, false},
		{"no steps", e.TagGC(&ct, 192, hint), 0, 0, 0, false},
		{"unwritten tag", Tag{}, 8, 0, 0, true},
	} {
		ctr, macOps, ok := e.SearchCounterGC(&ct, 192, tc.tag, tc.steps)
		if ctr != tc.ctr || macOps != tc.macOps || ok != tc.ok {
			t.Errorf("%s: (%#x, %d, %v), want (%#x, %d, %v)", tc.name, ctr, macOps, ok, tc.ctr, tc.macOps, tc.ok)
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
			tag := fast.TagSC(&ct, 256, 11<<6|minor, 11)
			gtag := fast.TagGC(&ct, 256, minor<<16|0x77)
			if tamper {
				ct[17] ^= 0x40
			}
			maj, mi, ops, ok := fast.RecoverCounterSC(&ct, 256, tag, 3)
			wmaj, wmi, wops, wok := slow.RecoverCounterSC(&ct, 256, tag, 3)
			if maj != wmaj || mi != wmi || ops != wops || ok != wok {
				t.Fatalf("SC minor %d tamper %v: fast (%d, %d, %d, %v), Sum64 loop (%d, %d, %d, %v)",
					minor, tamper, maj, mi, ops, ok, wmaj, wmi, wops, wok)
			}
			if ok == tamper || (ok && (maj != 11 || uint64(mi) != minor || ops != minor+1)) {
				t.Fatalf("SC minor %d tamper %v: (%d, %d, %d, %v)", minor, tamper, maj, mi, ops, ok)
			}

			ctr, gops, gok := fast.SearchCounterGC(&ct, 256, gtag, 64)
			wctr, wgops, wgok := slow.SearchCounterGC(&ct, 256, gtag, 64)
			if ctr != wctr || gops != wgops || gok != wgok {
				t.Fatalf("GC step %d tamper %v: fast (%#x, %d, %v), Sum64 loop (%#x, %d, %v)",
					minor, tamper, ctr, gops, gok, wctr, wgops, wgok)
			}
			if gok == tamper || (gok && (ctr != minor<<16|0x77 || gops != minor+1)) {
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
		got, _, ok := e.RecoverCounterGC(&ct, 64, tag, stale)
		return ok && got == actual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedHintCheckMatchesSerial holds the batched hinted check
// (CheckHintsSC, then RecoverSlotSC per slot) to RecoverCounterSCMsg, slot
// by slot, on leaves that mix every case a recovery meets: a hit, a wrong
// hint minor that the search still verifies, tampered ciphertext, a
// tampered tag MAC, and unwritten slots (not listed, and listed anyway).
// The written counts leave a final group of fewer than eight slots, and
// the engines cover the AVX-512 or generic SipHash path, a MAC with no
// eight-lane path (HMAC-SHA-256) and SipHash behind a wrapper.
func TestBatchedHintCheckMatchesSerial(t *testing.T) {
	const major, base = 41, 0x4000
	for _, mac := range []crypt.MAC{crypt.SipMAC{}, crypt.HMACSHA256{}, plainMAC{crypt.SipMAC{}}} {
		e := newEngine()
		e.MAC = mac
		for _, stride := range []int{1, 2, 3, 5, 7, 64} {
			var leaf SplitLeaf
			var listed []int
			var cases [64]string
			for i := 0; i < 64; i++ {
				addr := uint64(base + 64*i)
				ct := [64]byte{byte(i), byte(stride), 0xc3}
				minor := uint64(i*stride+i/3) & 63
				tag := e.TagSC(&ct, addr, major<<6|minor, major)
				switch cases[i] = []string{"hit", "wrong hint minor", "tampered ciphertext", "tampered tag MAC", "unwritten", "unwritten, listed"}[i%6]; cases[i] {
				case "wrong hint minor":
					tag.Hint = major<<6 | (minor+1+uint64(i)%5)&63
				case "tampered ciphertext":
					ct[i%64] ^= 0x10
				case "tampered tag MAC":
					tag.MAC ^= 1 << uint(i)
				case "unwritten", "unwritten, listed":
					tag = Tag{}
				}
				msg := leaf.Msg(i)
				sit.PutDataMACMsg(msg, addr, &ct, uint64(i)) // any counter
				leaf.Tag[i] = tag
				if i%stride == 0 && cases[i] != "unwritten" {
					listed = append(listed, i)
				}
			}
			if len(listed)%8 == 0 && len(listed) > 8 {
				listed = listed[:len(listed)-3] // end on a partial group
			}
			want := make([][4]uint64, 64)
			for i := range want {
				msg := *leaf.Msg(i)
				maj, mi, ops, ok := e.RecoverCounterSCMsg(&msg, leaf.Tag[i])
				want[i] = [4]uint64{maj, uint64(mi), ops, b2u(ok)}
			}
			e.CheckHintsSC(&leaf, listed)
			// Only an intact block under its true hint may pass the check.
			// A check that missed everywhere would still match the serial
			// results through the search; this pins that it hits.
			for _, i := range listed {
				if hit := leaf.hits>>uint(i)&1 != 0; hit != (cases[i] == "hit") {
					t.Errorf("%s stride %d slot %d (%s): hinted check hit = %v", mac.Name(), stride, i, cases[i], hit)
				}
			}
			for i := 0; i < 64; i++ {
				maj, mi, ops, ok := e.RecoverSlotSC(&leaf, i)
				if got := [4]uint64{maj, uint64(mi), ops, b2u(ok)}; got != want[i] {
					t.Errorf("%s stride %d slot %d (%s, %d listed): batched (major, minor, macOps, ok) = %v, RecoverCounterSCMsg %v",
						mac.Name(), stride, i, cases[i], len(listed), got, want[i])
				}
			}
		}
	}
}

// TestSplitLeafMsgForgetsCheck: repacking a slot's message after a
// CheckHintsSC drops the slot's hinted hit, so a stale check never
// vouches for new contents.
func TestSplitLeafMsgForgetsCheck(t *testing.T) {
	e := newEngine()
	var leaf SplitLeaf
	ct := [64]byte{7}
	leaf.Tag[3] = e.TagSC(&ct, 192, 9<<6|4, 9)
	sit.PutDataMACMsg(leaf.Msg(3), 192, &ct, 0)
	e.CheckHintsSC(&leaf, []int{3})
	ct[0] ^= 1
	sit.PutDataMACMsg(leaf.Msg(3), 192, &ct, 0)
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
	tag := e.TagSC(&ct, 128, 5<<6|63, 5) // worst case: minor 63
	for i := 0; i < b.N; i++ {
		e.RecoverCounterSC(&ct, 128, tag, 0)
	}
}

// BenchmarkRecoverSplitLeaf recovers a fully written split leaf's 64
// minors through the batched hinted check and through RecoverCounterSCMsg
// one slot at a time.
func BenchmarkRecoverSplitLeaf(b *testing.B) {
	e := newEngine()
	var leaf SplitLeaf
	slots := make([]int, 64)
	for i := range slots {
		slots[i] = i
		ct := [64]byte{byte(i)}
		leaf.Tag[i] = e.TagSC(&ct, uint64(64*i), 3<<6|uint64(i), 3)
		sit.PutDataMACMsg(leaf.Msg(i), uint64(64*i), &ct, 0)
	}
	b.Run("batched", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			e.CheckHintsSC(&leaf, slots)
			for _, i := range slots {
				e.RecoverSlotSC(&leaf, i)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for _, i := range slots {
				e.RecoverCounterSCMsg(leaf.Msg(i), leaf.Tag[i])
			}
		}
	})
}
