package crypt

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// plainMAC hides every optional fast path of the MAC it wraps, so
// SearchCounter over it runs the Sum64 loop.
type plainMAC struct{ MAC }

// searchCase is one counter search: a message whose last word is the
// counter slot, the candidate progression, and the MAC to find.
type searchCase struct {
	key           Key
	msg           []byte
	first, stride uint64
	n             int
	want          uint64
}

// checkSearch runs c through the SipHash fast path and the Sum64 loop and
// fails unless both return the same (counter, tries, ok).
func checkSearch(t *testing.T, c searchCase) (uint64, int, bool) {
	t.Helper()
	fast := append([]byte(nil), c.msg...)
	slow := append([]byte(nil), c.msg...)
	ctr, tried, ok := SearchCounter(SipMAC{}, c.key, fast, c.first, c.stride, c.n, c.want)
	wctr, wtried, wok := SearchCounter(plainMAC{SipMAC{}}, c.key, slow, c.first, c.stride, c.n, c.want)
	if ctr != wctr || tried != wtried || ok != wok {
		t.Fatalf("len %d first %#x stride %d n %d: fast path = (%#x, %d, %v), Sum64 loop = (%#x, %d, %v)",
			len(c.msg), c.first, c.stride, c.n, ctr, tried, ok, wctr, wtried, wok)
	}
	return ctr, tried, ok
}

// macAt is the MAC of msg with candidate k of the progression in its
// counter slot.
func macAt(key Key, msg []byte, first, stride uint64, k int) uint64 {
	m := append([]byte(nil), msg...)
	binary.LittleEndian.PutUint64(m[len(m)-8:], first+uint64(k)*stride)
	return SipMAC{}.Sum64(key, m)
}

// TestSearchCounterMatchesSum64 pins the SipHash prefix-cached search to
// the one-Sum64-per-candidate loop over random keys, the message lengths
// the engine and its tests use (a bare counter, a 64-byte prefix and the
// 72-byte DataMACInto prefix), the SC and GC strides, and both hits at a
// known candidate and misses.
func TestSearchCounterMatchesSum64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, size := range []int{8, 72, 80} {
		for _, stride := range []uint64{1, 65536} {
			for trial := 0; trial < 50; trial++ {
				var key Key
				r.Read(key[:])
				msg := make([]byte, size)
				r.Read(msg)
				first := r.Uint64()
				n := 1 + r.Intn(70)
				c := searchCase{key: key, msg: msg, first: first, stride: stride, n: n}

				k := r.Intn(n)
				c.want = macAt(key, msg, first, stride, k)
				ctr, tried, ok := checkSearch(t, c)
				if wantCtr := first + uint64(k)*stride; ctr != wantCtr || tried != k+1 || !ok {
					t.Fatalf("len %d stride %d: hit at %d returned (%#x, %d, %v), want (%#x, %d, true)",
						size, stride, k, ctr, tried, ok, wantCtr, k+1)
				}

				c.want = macAt(key, msg, first, stride, n) // one past the cap
				if ctr, tried, ok := checkSearch(t, c); ctr != 0 || tried != n || ok {
					t.Fatalf("len %d stride %d: miss returned (%#x, %d, %v), want (0, %d, false)",
						size, stride, ctr, tried, ok, n)
				}
			}
		}
	}
}

// TestSearchCounterFallbacks covers the searches that take the Sum64 loop:
// a MAC with no fast path (HMAC-SHA-256), a SipHash message whose counter
// word straddles two blocks, and a search with no candidates.
func TestSearchCounterFallbacks(t *testing.T) {
	key := NewKey(3)
	msg := make([]byte, 80)
	for _, tc := range []struct {
		mac  MAC
		size int
	}{{HMACSHA256{}, 80}, {HMACSHA256{}, 13}, {SipMAC{}, 13}} {
		m := append([]byte(nil), msg[:tc.size]...)
		binary.LittleEndian.PutUint64(m[tc.size-8:], 7<<6|5)
		want := tc.mac.Sum64(key, m)
		ctr, tried, ok := SearchCounter(tc.mac, key, msg[:tc.size], 7<<6, 1, 64, want)
		if ctr != 7<<6|5 || tried != 6 || !ok {
			t.Errorf("%s len %d: (%#x, %d, %v), want (%#x, 6, true)", tc.mac.Name(), tc.size, ctr, tried, ok, 7<<6|5)
		}
	}
	for _, n := range []int{0, -3} {
		if ctr, tried, ok := SearchCounter(SipMAC{}, key, msg, 0, 1, n, 0); ctr != 0 || tried != 0 || ok {
			t.Errorf("n %d: (%d, %d, %v), want (0, 0, false)", n, ctr, tried, ok)
		}
	}
}

// FuzzSearchCounter compares the SipHash fast path with the Sum64 loop on
// arbitrary keys, messages and progressions; hit selects whether want is
// the MAC of candidate hitAt (a hit when hitAt < n) or an arbitrary value.
func FuzzSearchCounter(f *testing.F) {
	f.Add(uint64(1), make([]byte, 80), uint64(5<<6), uint64(1), uint8(64), uint8(63), true, uint64(0))
	f.Add(uint64(2), make([]byte, 72), uint64(9), uint64(65536), uint8(8), uint8(8), true, uint64(0))
	f.Add(uint64(3), make([]byte, 8), uint64(1<<63), uint64(1<<62), uint8(5), uint8(0), false, uint64(42))
	f.Add(uint64(4), []byte("counter slot straddles a block"), uint64(0), uint64(3), uint8(9), uint8(4), true, uint64(0))
	f.Fuzz(func(t *testing.T, keySeed uint64, msg []byte, first, stride uint64, n, hitAt uint8, hit bool, want uint64) {
		if len(msg) < 8 || len(msg) > 256 {
			return
		}
		key := NewKey(keySeed)
		if hit {
			want = macAt(key, msg, first, stride, int(hitAt))
		}
		ctr, tried, ok := checkSearch(t, searchCase{key: key, msg: msg, first: first, stride: stride, n: int(n), want: want})
		if hit && hitAt < n && (!ok || tried > int(hitAt)+1) {
			t.Fatalf("candidate %d of %d carries the MAC, search returned (%#x, %d, %v)", hitAt, n, ctr, tried, ok)
		}
	})
}

// BenchmarkSearchCounter64 is a worst-case split-counter search (64
// candidates, no hit) on the fast path and on the Sum64 loop.
func BenchmarkSearchCounter64(b *testing.B) {
	key := NewKey(1)
	msg := make([]byte, 80)
	for _, bc := range []struct {
		name string
		mac  MAC
	}{{"prefix-cached", SipMAC{}}, {"sum64-loop", plainMAC{SipMAC{}}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SearchCounter(bc.mac, key, msg, 0, 1, 64, 1)
			}
		})
	}
}
