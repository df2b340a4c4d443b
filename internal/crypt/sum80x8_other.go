//go:build !amd64

package crypt

// haveAVX512 is false off amd64: Sum80x8 takes the generic path.
const haveAVX512 = false

// sum80x8AVX512 exists only on amd64; haveAVX512 keeps it unreachable.
func sum80x8AVX512(key *Key, base *byte, off *[8]int, out *[8]uint64) {
	panic("crypt: no AVX-512 SipHash kernel on this architecture")
}
