// Package crypt provides the cryptographic primitives of the secure memory
// controller: keyed MACs for integrity (HMAC in the paper) and one-time-pad
// generation for counter-mode encryption (AES-CTR in the paper).
//
// Both primitives are behind small interfaces with two implementations
// each: a fast from-scratch variant (SipHash-2-4 MAC, xorshift-mixed pad)
// used by default so multi-million-request simulations stay quick, and a
// stdlib-crypto variant (HMAC-SHA-256, AES-CTR) for functional security
// testing. Simulated latency and energy are charged from configuration
// constants (Table I: 40-cycle hash), never from host crypto speed, so the
// choice does not affect any reported metric.
//
// Recovery checks many independent 80-byte data-MAC messages at once.
// Sum80x8 MACs eight of them per call, each addressed by its offset in one
// buffer. For SipMAC on an amd64 CPU with AVX-512 (AVX512F and the OS's
// ZMM and opmask state, detected once with CPUID and XGETBV) that is one
// eight-lane SIMD SipHash pass that gathers every message word in place;
// every other CPU, and every other MAC, takes one Sum64 per message. Both
// return the same words, and there is no switch: the CPU decides.
package crypt

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// Key is a 128-bit secret key held inside the trusted processor domain.
type Key [16]byte

// NewKey derives a Key from a seed; convenient for deterministic tests.
func NewKey(seed uint64) Key {
	var k Key
	binary.LittleEndian.PutUint64(k[0:8], seed)
	binary.LittleEndian.PutUint64(k[8:16], seed^0x5bd1e9955bd1e995)
	return k
}

// MAC computes 64-bit keyed message authentication codes. The 64-bit output
// width matches the HMAC field of SIT nodes and the per-data-block HMAC.
type MAC interface {
	// Sum64 returns the keyed MAC of msg.
	Sum64(key Key, msg []byte) uint64
	// Name identifies the implementation in logs and stats.
	Name() string
}

// SearchMAC is an optional fast path a MAC may implement for counter
// searches: msg ends with an 8-byte little-endian counter word, and the
// implementation tries candidates first, first+stride, ... without
// recomputing the fixed prefix each time. It must return exactly what the
// Sum64 loop of SearchCounter returns.
type SearchMAC interface {
	SearchCounter(key Key, msg []byte, first, stride uint64, n int, want uint64) (ctr uint64, tried int, ok bool)
}

// SearchCounter tries the counter candidates first + i*stride for
// i = 0..n-1 in order: candidate i is written as the little-endian last
// eight bytes of msg, and the search stops at the first candidate whose
// MAC equals want, returning (candidate, i+1, true). A miss returns
// (0, n, false) (0 tries when n <= 0). tried counts MAC evaluations for
// recovery-cost accounting, so it is the same whether or not the
// implementation has a fast path. The counter word of msg is scratch: its
// value on return is unspecified. len(msg) must be at least 8.
func SearchCounter(m MAC, key Key, msg []byte, first, stride uint64, n int, want uint64) (ctr uint64, tried int, ok bool) {
	if sm, isSearch := m.(SearchMAC); isSearch {
		return sm.SearchCounter(key, msg, first, stride, n, want)
	}
	return searchSum64(m, key, msg, first, stride, n, want)
}

// searchSum64 is the counter search as one Sum64 per candidate.
func searchSum64(m MAC, key Key, msg []byte, first, stride uint64, n int, want uint64) (uint64, int, bool) {
	word := msg[len(msg)-8:]
	cand := first
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(word, cand)
		if m.Sum64(key, msg) == want {
			return cand, i + 1, true
		}
		cand += stride
	}
	return 0, max(n, 0), false
}

// OTPGen produces 64-byte one-time pads from (key, address, counter), the
// CME construction of §II-B. Pads are unique as long as (addr, counter)
// pairs never repeat under one key.
type OTPGen interface {
	// Pad fills dst (64 bytes) with the one-time pad.
	Pad(dst *[64]byte, key Key, addr uint64, counter uint64)
	Name() string
}

// --- SipHash-2-4 -----------------------------------------------------------

// SipMAC is a from-scratch SipHash-2-4 implementation: a fast keyed PRF with
// 64-bit output, the default MAC for simulation runs.
type SipMAC struct{}

// Name implements MAC.
func (SipMAC) Name() string { return "siphash-2-4" }

// Sum64 implements MAC.
func (SipMAC) Sum64(key Key, msg []byte) uint64 {
	return sipCore(key, msg)
}

// SearchCounter implements SearchMAC. When the counter word is a whole
// SipHash block (len(msg) a multiple of 8), the prefix blocks are
// absorbed once; each candidate then costs its own block, the length block
// and finalization: 8 SipRounds instead of 2*len(msg)/8 + 6. Other lengths
// take the Sum64 loop.
func (s SipMAC) SearchCounter(key Key, msg []byte, first, stride uint64, n int, want uint64) (uint64, int, bool) {
	if len(msg)%8 != 0 {
		return searchSum64(s, key, msg, first, stride, n, want)
	}
	p0, p1, p2, p3 := sipInit(key)
	for i := 0; i+8 < len(msg); i += 8 {
		m := binary.LittleEndian.Uint64(msg[i:])
		v0, v1, v2, v3 := sipRound(p0, p1, p2, p3^m)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		p0, p1, p2, p3 = v0^m, v1, v2, v3
	}
	last := uint64(len(msg)) << 56
	cand := first
	for i := 0; i < n; i++ {
		v0, v1, v2, v3 := sipRound(p0, p1, p2, p3^cand)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0^cand, v1, v2, v3^last)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0^last, v1, v2^0xff, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		if v0^v1^v2^v3 == want {
			return cand, i + 1, true
		}
		cand += stride
	}
	return 0, max(n, 0), false
}

// sipCore is SipHash-2-4 over msg.
func sipCore(key Key, msg []byte) uint64 {
	v0, v1, v2, v3 := sipInit(key)
	n := len(msg)
	i := 0
	for ; i+8 <= n; i += 8 {
		m := binary.LittleEndian.Uint64(msg[i:])
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3^m)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0 ^= m
	}
	last := uint64(n) << 56
	for j := 0; i+j < n; j++ {
		last |= uint64(msg[i+j]) << (8 * uint(j))
	}
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3^last)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0^last, v1, v2^0xff, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	return v0 ^ v1 ^ v2 ^ v3
}

// sipInit returns the SipHash state keyed by key.
func sipInit(key Key) (v0, v1, v2, v3 uint64) {
	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])
	return k0 ^ 0x736f6d6570736575, k1 ^ 0x646f72616e646f6d,
		k0 ^ 0x6c7967656e657261, k1 ^ 0x7465646279746573
}

// sipRound is one SipRound. It takes and returns the state by value so
// the compiler inlines it and keeps the four words in registers.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13)
	v1 ^= v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17)
	v1 ^= v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// --- HMAC-SHA-256 ----------------------------------------------------------

// HMACSHA256 is the stdlib HMAC-SHA-256 MAC truncated to 64 bits, the
// construction named by the paper. Use for functional security tests.
type HMACSHA256 struct{}

// Name implements MAC.
func (HMACSHA256) Name() string { return "hmac-sha256" }

// Sum64 implements MAC.
func (HMACSHA256) Sum64(key Key, msg []byte) uint64 {
	h := hmac.New(sha256.New, key[:])
	h.Write(msg)
	return binary.LittleEndian.Uint64(h.Sum(nil)[:8])
}

// --- Fast pad ---------------------------------------------------------------

// FastPad generates 64-byte pads via splitmix64 mixing of
// (key, addr, counter); it is not cryptographically strong but is unique
// per input tuple and two orders of magnitude faster than AES in software,
// which keeps long simulations cheap.
type FastPad struct{}

// Name implements OTPGen.
func (FastPad) Name() string { return "fastpad" }

// Pad implements OTPGen.
func (FastPad) Pad(dst *[64]byte, key Key, addr uint64, counter uint64) {
	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])
	x := k0 ^ addr*0x9e3779b97f4a7c15 ^ counter*0xc2b2ae3d27d4eb4f
	y := k1 ^ addr ^ bits.RotateLeft64(counter, 31)
	for i := 0; i < 64; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x ^ y
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(dst[i:], z)
		y = bits.RotateLeft64(y, 13) + z
	}
}

// --- AES-CTR pad -------------------------------------------------------------

// AESPad generates pads with AES-128 in counter mode over four consecutive
// 16-byte blocks of (addr, counter, block index), the OTP construction of
// §II-B.
type AESPad struct{}

// Name implements OTPGen.
func (AESPad) Name() string { return "aes-ctr" }

// Pad implements OTPGen.
func (AESPad) Pad(dst *[64]byte, key Key, addr uint64, counter uint64) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// A 16-byte key can never fail; keep the impossible branch loud.
		panic("crypt: aes.NewCipher: " + err.Error())
	}
	var in [16]byte
	binary.LittleEndian.PutUint64(in[0:8], addr)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(in[8:16], counter<<2|uint64(i))
		block.Encrypt(dst[i*16:(i+1)*16], in[:])
	}
}

// XOR64 XORs the 64-byte pad into dst in place, the encrypt/decrypt step of
// counter-mode encryption.
func XOR64(dst *[64]byte, pad *[64]byte) {
	for i := 0; i < 64; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		p := binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^p)
	}
}
