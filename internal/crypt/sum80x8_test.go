package crypt

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// sum80x8Impl is one implementation of the eight-lane MAC under test.
type sum80x8Impl struct {
	name string
	run  func(key Key, msgs []byte, off *[8]int, n int, out *[8]uint64)
}

// sum80x8Impls returns the generic implementation and, where the CPU
// supports it, the AVX-512 kernel. The kernel reads all eight lanes, so
// its padding lanes get random in-range offsets of their own: a lane it
// mixed up would show as a wrong live output.
func sum80x8Impls(t testing.TB, r *rand.Rand) []sum80x8Impl {
	impls := []sum80x8Impl{{"generic", sum80x8Generic}}
	if !haveAVX512 {
		t.Logf("no AVX-512 on this CPU: skipping the kernel, checking the generic path only")
		return impls
	}
	return append(impls, sum80x8Impl{"avx512", func(key Key, msgs []byte, off *[8]int, n int, out *[8]uint64) {
		lanes := *off
		for j := n; j < 8; j++ {
			lanes[j] = r.Intn(len(msgs) - msgSize80 + 1)
		}
		sum80x8AVX512(&key, &msgs[0], &lanes, out)
	}})
}

// checkSum80x8 runs every implementation and Sum80x8 itself on one input
// and fails unless each live lane equals sipCore of its message. Sum80x8
// gets out-of-range padding offsets, which it must not read.
func checkSum80x8(t *testing.T, impls []sum80x8Impl, key Key, msgs []byte, off [8]int, n int) {
	t.Helper()
	var want [8]uint64
	for j := 0; j < n; j++ {
		want[j] = sipCore(key, msgs[off[j]:off[j]+msgSize80])
	}
	for _, im := range impls {
		var out [8]uint64
		im.run(key, msgs, &off, n, &out)
		for j := 0; j < n; j++ {
			if out[j] != want[j] {
				t.Fatalf("%s: %d live lanes, lane %d offset %d: got %#x, want sipCore %#x", im.name, n, j, off[j], out[j], want[j])
			}
		}
	}
	pad := off
	for j := n; j < 8; j++ {
		pad[j] = -1 - j*len(msgs)
	}
	var out [8]uint64
	Sum80x8(SipMAC{}, key, msgs, &pad, n, &out)
	for j := 0; j < n; j++ {
		if out[j] != want[j] {
			t.Fatalf("Sum80x8: %d live lanes, lane %d offset %d: got %#x, want sipCore %#x", n, j, off[j], out[j], want[j])
		}
	}
}

// TestSum80x8MatchesSipCore pins both eight-lane implementations to
// sipCore over random keys and messages, every live-lane count from 1 to
// 8, and offsets at any stride: a split leaf's back-to-back messages
// (stride 80), overlapping ones (stride 8 and 1), repeated ones, and
// random unaligned offsets.
func TestSum80x8MatchesSipCore(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	impls := sum80x8Impls(t, r)
	msgs := make([]byte, 64*msgSize80+7)
	for trial := 0; trial < 40; trial++ {
		var key Key
		r.Read(key[:])
		r.Read(msgs)
		for n := 1; n <= 8; n++ {
			for _, stride := range []int{msgSize80, 8, 1, 0} {
				var off [8]int
				start := r.Intn(len(msgs) - msgSize80 - 7*stride + 1)
				for j := 0; j < n; j++ {
					off[j] = start + j*stride
				}
				checkSum80x8(t, impls, key, msgs, off, n)
			}
			var off [8]int
			for j := 0; j < n; j++ {
				off[j] = r.Intn(len(msgs) - msgSize80 + 1)
			}
			checkSum80x8(t, impls, key, msgs, off, n)
		}
	}
}

// TestSum80x8OtherMACs: a MAC other than SipMAC (HMAC-SHA-256, or SipHash
// behind a wrapper that hides its type) takes one Sum64 per lane.
func TestSum80x8OtherMACs(t *testing.T) {
	key := NewKey(5)
	msgs := make([]byte, 3*msgSize80)
	rand.New(rand.NewSource(3)).Read(msgs)
	off := [8]int{160, 0, 80}
	for _, m := range []MAC{HMACSHA256{}, plainMAC{SipMAC{}}} {
		var out [8]uint64
		Sum80x8(m, key, msgs, &off, 3, &out)
		for j := 0; j < 3; j++ {
			if want := m.Sum64(key, msgs[off[j]:off[j]+msgSize80]); out[j] != want {
				t.Errorf("%s lane %d: got %#x, want %#x", m.Name(), j, out[j], want)
			}
		}
	}
}

// TestSum80x8RefusesBadLanes: a live lane whose message leaves msgs, or a
// lane count outside [0, 8], panics before any byte is read.
func TestSum80x8RefusesBadLanes(t *testing.T) {
	msgs := make([]byte, 2*msgSize80)
	for _, c := range []struct {
		name string
		off  [8]int
		n    int
	}{
		{"past the end", [8]int{0, msgSize80 + 1}, 2},
		{"negative", [8]int{-8}, 1},
		{"nine lanes", [8]int{}, 9},
		{"negative lanes", [8]int{}, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Sum80x8 did not panic", c.name)
				}
			}()
			var out [8]uint64
			Sum80x8(SipMAC{}, NewKey(1), msgs, &c.off, c.n, &out)
		}()
	}
}

// FuzzSum80x8 compares the generic implementation with the AVX-512 kernel
// (where the CPU has it) and sipCore on arbitrary keys, messages, lane
// counts and offsets; each offset is folded into the message buffer.
func FuzzSum80x8(f *testing.F) {
	f.Add(uint64(1), make([]byte, 8*msgSize80), uint8(8), uint64(0), uint64(msgSize80))
	f.Add(uint64(2), make([]byte, msgSize80), uint8(1), uint64(0), uint64(0))
	f.Add(uint64(3), []byte("eighty bytes of message with a few to spare, at any offset at all, or so it says, and then some"), uint8(5), uint64(3), uint64(1))
	f.Fuzz(func(t *testing.T, keySeed uint64, msgs []byte, n uint8, start, stride uint64) {
		if len(msgs) < msgSize80 || len(msgs) > 64*msgSize80 {
			return
		}
		lanes := int(n%8) + 1
		span := uint64(len(msgs) - msgSize80 + 1)
		var off [8]int
		for j := 0; j < lanes; j++ {
			off[j] = int((start + uint64(j)*stride) % span)
		}
		impls := sum80x8Impls(t, rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(msgs)))))
		checkSum80x8(t, impls, NewKey(keySeed), msgs, off, lanes)
	})
}
