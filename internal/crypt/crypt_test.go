package crypt

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

var macs = []MAC{SipMAC{}, HMACSHA256{}}
var pads = []OTPGen{FastPad{}, AESPad{}}

func TestSipHashVectors(t *testing.T) {
	// Reference vectors from the SipHash paper (Aumasson & Bernstein):
	// key = 000102...0f, messages = "", 00, 0001, ... (first bytes shown).
	var key Key
	for i := range key {
		key[i] = byte(i)
	}
	want := []uint64{
		0x726fdb47dd0e0e31,
		0x74f839c593dc67fd,
		0x0d6c8009d9a94f5a,
		0x85676696d7fb7e2d,
		0xcf2794e0277187b7,
		0x18765564cd99a68d,
		0xcbc9466e58fee3ce,
		0xab0200f58b01d137,
	}
	msg := make([]byte, 0, 8)
	for i, w := range want {
		if got := (SipMAC{}).Sum64(key, msg); got != w {
			t.Errorf("siphash vector %d: got %#x, want %#x", i, got, w)
		}
		msg = append(msg, byte(i))
	}
	// Longer vectors of the same table run the whole-block loop: one full
	// block, one block plus a 7-byte tail, seven blocks plus a 7-byte tail.
	for _, v := range []struct {
		n    int
		want uint64
	}{
		{8, 0x93f5f5799a932462},
		{15, 0xa129ca6149be45e5},
		{63, 0x958a324ceb064572},
	} {
		msg := make([]byte, v.n)
		for i := range msg {
			msg[i] = byte(i)
		}
		if got := (SipMAC{}).Sum64(key, msg); got != v.want {
			t.Errorf("siphash vector %d: got %#x, want %#x", v.n, got, v.want)
		}
	}
}

func TestMACDeterministic(t *testing.T) {
	for _, m := range macs {
		key := NewKey(1)
		msg := []byte("the quick brown fox")
		if m.Sum64(key, msg) != m.Sum64(key, msg) {
			t.Errorf("%s: same input produced different MACs", m.Name())
		}
	}
}

func TestMACKeySeparation(t *testing.T) {
	for _, m := range macs {
		msg := []byte("payload")
		if m.Sum64(NewKey(1), msg) == m.Sum64(NewKey(2), msg) {
			t.Errorf("%s: different keys produced identical MACs", m.Name())
		}
	}
}

func TestMACMessageSensitivity(t *testing.T) {
	for _, m := range macs {
		key := NewKey(9)
		base := make([]byte, 64)
		ref := m.Sum64(key, base)
		for bit := 0; bit < 64*8; bit += 37 {
			mut := make([]byte, 64)
			copy(mut, base)
			mut[bit/8] ^= 1 << uint(bit%8)
			if m.Sum64(key, mut) == ref {
				t.Errorf("%s: flipping bit %d left MAC unchanged", m.Name(), bit)
			}
		}
	}
}

func TestMACLengthExtensionDistinct(t *testing.T) {
	// Messages that are prefixes of each other must not collide (SipHash
	// encodes the length in the final block).
	for _, m := range macs {
		key := NewKey(4)
		a := m.Sum64(key, []byte{1, 2, 3})
		b := m.Sum64(key, []byte{1, 2, 3, 0})
		if a == b {
			t.Errorf("%s: prefix and zero-extended message collide", m.Name())
		}
	}
}

func TestMACQuickNoTrivialCollisions(t *testing.T) {
	m := SipMAC{}
	key := NewKey(77)
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return m.Sum64(key, a) != m.Sum64(key, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPadDeterministic(t *testing.T) {
	for _, p := range pads {
		var a, b [64]byte
		p.Pad(&a, NewKey(3), 0x1000, 7)
		p.Pad(&b, NewKey(3), 0x1000, 7)
		if a != b {
			t.Errorf("%s: same inputs produced different pads", p.Name())
		}
	}
}

func TestPadUniquePerCounter(t *testing.T) {
	for _, p := range pads {
		seen := map[[64]byte]uint64{}
		key := NewKey(5)
		for ctr := uint64(0); ctr < 512; ctr++ {
			var pad [64]byte
			p.Pad(&pad, key, 0xdead00, ctr)
			if prev, dup := seen[pad]; dup {
				t.Fatalf("%s: counters %d and %d produced identical pads", p.Name(), prev, ctr)
			}
			seen[pad] = ctr
		}
	}
}

func TestPadUniquePerAddress(t *testing.T) {
	for _, p := range pads {
		seen := map[[64]byte]uint64{}
		key := NewKey(6)
		for a := uint64(0); a < 512; a++ {
			var pad [64]byte
			p.Pad(&pad, key, a*64, 1)
			if prev, dup := seen[pad]; dup {
				t.Fatalf("%s: addresses %d and %d produced identical pads", p.Name(), prev, a*64)
			}
			seen[pad] = a * 64
		}
	}
}

func TestXOR64RoundTrip(t *testing.T) {
	f := func(data [64]byte, seed uint64) bool {
		var pad [64]byte
		FastPad{}.Pad(&pad, NewKey(seed), seed*64, seed)
		enc := data
		XOR64(&enc, &pad)
		if enc == data && pad != ([64]byte{}) {
			return false // encryption must change the data for non-zero pads
		}
		XOR64(&enc, &pad)
		return enc == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAESPadMatchesAESBlockStructure(t *testing.T) {
	// The four 16-byte blocks of one pad must be pairwise distinct: AES is
	// a permutation and the four inputs differ in the embedded block index.
	var pad [64]byte
	AESPad{}.Pad(&pad, NewKey(8), 0x40, 9)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if bytes.Equal(pad[i*16:(i+1)*16], pad[j*16:(j+1)*16]) {
				t.Fatalf("pad blocks %d and %d identical", i, j)
			}
		}
	}
}

func TestNewKeyDistinct(t *testing.T) {
	if NewKey(1) == NewKey(2) {
		t.Fatal("NewKey(1) == NewKey(2)")
	}
}

func TestCounterEncoding(t *testing.T) {
	// Guard the counter<<2|i packing in AESPad: consecutive counters must
	// not alias (counter 1 block 0 vs counter 0 block 4 cannot exist since
	// block index < 4).
	var a, b [64]byte
	AESPad{}.Pad(&a, NewKey(2), 0, 0)
	AESPad{}.Pad(&b, NewKey(2), 0, 1)
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("counter 0 and 1 pads identical")
	}
	// Explicitly check the packed values are disjoint sets.
	set := map[uint64]bool{}
	for ctr := uint64(0); ctr < 4; ctr++ {
		for i := uint64(0); i < 4; i++ {
			v := ctr<<2 | i
			if set[v] {
				t.Fatalf("packed CTR value %d repeats", v)
			}
			set[v] = true
		}
	}
	_ = binary.LittleEndian // keep import if edits drop usage above
}

func BenchmarkSipMAC64B(b *testing.B) {
	key := NewKey(1)
	msg := make([]byte, 64)
	m := SipMAC{}
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		_ = m.Sum64(key, msg)
	}
}

// BenchmarkSum80x8 MACs eight back-to-back 80-byte messages per call, as
// split-leaf recovery checks a leaf's hinted counters, on the path this
// CPU takes and on the one-sipCore-per-lane path; ns/MAC is per message.
func BenchmarkSum80x8(b *testing.B) {
	key := NewKey(1)
	msgs := make([]byte, 8*msgSize80)
	var off [8]int
	for j := range off {
		off[j] = j * msgSize80
	}
	for _, bc := range []struct {
		name string
		run  func(out *[8]uint64)
	}{
		{"dispatch", func(out *[8]uint64) { Sum80x8(SipMAC{}, key, msgs, &off, 8, out) }},
		{"generic", func(out *[8]uint64) { sum80x8Generic(key, msgs, &off, 8, out) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var out [8]uint64
			for i := 0; i < b.N; i++ {
				bc.run(&out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(8*b.N), "ns/MAC")
		})
	}
}

func BenchmarkHMACSHA256_64B(b *testing.B) {
	key := NewKey(1)
	msg := make([]byte, 64)
	m := HMACSHA256{}
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		_ = m.Sum64(key, msg)
	}
}

func BenchmarkFastPad(b *testing.B) {
	var pad [64]byte
	key := NewKey(1)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		FastPad{}.Pad(&pad, key, uint64(i)*64, uint64(i))
	}
}

func BenchmarkAESPad(b *testing.B) {
	var pad [64]byte
	key := NewKey(1)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		AESPad{}.Pad(&pad, key, uint64(i)*64, uint64(i))
	}
}
