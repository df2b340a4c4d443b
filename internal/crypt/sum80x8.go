package crypt

import "fmt"

// msgSize80 is the length of the messages Sum80x8 MACs: the data MAC
// message (64-byte ciphertext, address, counter).
const msgSize80 = 80

// Sum80x8 MACs up to eight 80-byte messages in one call: for each live
// lane j < n, out[j] = m.Sum64(key, msgs[off[j]:off[j]+80]). Lanes n..7
// are padding: their offsets are not read and their outputs are
// unspecified. The messages stay where they are in msgs (no copy, no
// transpose), so a caller keeps many messages back to back and names the
// ones to check by offset.
//
// For SipMAC on a CPU with AVX-512 the eight lanes run as one SIMD
// SipHash-2-4 pass (sum80x8AVX512); elsewhere, and for any other MAC, it
// is one Sum64 per lane. Both return the same words. It panics if n is
// outside [0, 8] or a live lane's message does not lie inside msgs.
func Sum80x8(m MAC, key Key, msgs []byte, off *[8]int, n int, out *[8]uint64) {
	if n < 0 || n > 8 {
		panic(fmt.Sprintf("crypt: Sum80x8 with %d live lanes", n))
	}
	for j := 0; j < n; j++ {
		if o := off[j]; o < 0 || o > len(msgs)-msgSize80 {
			panic(fmt.Sprintf("crypt: Sum80x8 lane %d offset %d outside %d message bytes", j, o, len(msgs)))
		}
	}
	if _, sip := m.(SipMAC); !sip {
		for j := 0; j < n; j++ {
			out[j] = m.Sum64(key, msgs[off[j]:off[j]+msgSize80])
		}
		return
	}
	if n == 0 {
		return
	}
	if !haveAVX512 {
		sum80x8Generic(key, msgs, off, n, out)
		return
	}
	// The kernel gathers all eight lanes: point the padding lanes at lane
	// 0's message, which the check above proved readable.
	lanes := *off
	for j := n; j < 8; j++ {
		lanes[j] = lanes[0]
	}
	sum80x8AVX512(&key, &msgs[0], &lanes, out)
}

// sum80x8Generic is Sum80x8 for SipMAC as one sipCore per live lane: the
// path of every CPU without AVX-512, and the reference the kernel is
// tested against.
func sum80x8Generic(key Key, msgs []byte, off *[8]int, n int, out *[8]uint64) {
	for j := 0; j < n; j++ {
		out[j] = sipCore(key, msgs[off[j]:off[j]+msgSize80])
	}
}
