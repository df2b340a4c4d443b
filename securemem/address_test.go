package securemem_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"steins/securemem"
)

// TestChannelsAddressErrors pins the public address contract at every
// channel count: a bad address gives the same typed error naming the
// caller's address (not a channel-local one), and never a panic.
func TestChannelsAddressErrors(t *testing.T) {
	const dataBytes = 64 << 10
	cases := []struct {
		name string
		addr uint64
		want error // nil: the access succeeds
	}{
		{"capacity", dataBytes, securemem.ErrOutOfRange},
		{"capacity+64", dataBytes + 64, securemem.ErrOutOfRange},
		{"unaligned", 0x41, securemem.ErrUnaligned},
		{"last-block", dataBytes - securemem.BlockSize, nil},
	}
	ops := []struct {
		name string
		do   func(m *securemem.Memory, addr uint64) error
	}{
		{"write", func(m *securemem.Memory, addr uint64) error { return m.Write(addr, securemem.Block{1}) }},
		{"read", func(m *securemem.Memory, addr uint64) error { _, err := m.Read(addr); return err }},
	}
	for _, ch := range []int{1, 2, 4} {
		m, err := securemem.New(securemem.Config{DataBytes: dataBytes, Scheme: securemem.SteinsSC, Channels: ch})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%dch/%s/%s", ch, op.name, tc.name), func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					err := op.do(m, tc.addr)
					if tc.want == nil {
						if err != nil {
							t.Fatalf("valid address %#x: %v", tc.addr, err)
						}
						return
					}
					if !errors.Is(err, tc.want) {
						t.Fatalf("address %#x: error %v, want %v", tc.addr, err, tc.want)
					}
					if name := fmt.Sprintf("%#x", tc.addr); !strings.Contains(err.Error(), name) {
						t.Fatalf("error %q does not name the caller's address %s", err, name)
					}
				})
			}
		}
	}
}
