package multi_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/rng"
	"steins/internal/scheme/steins"
)

func template() memctrl.Config {
	cfg := memctrl.DefaultConfig(1<<20, false)
	cfg.MetaCacheBytes = 8 << 10
	return cfg
}

func pattern(addr uint64, v byte) [64]byte {
	var b [64]byte
	b[0], b[1], b[2] = v, byte(addr>>6), byte(addr>>14)
	return b
}

func TestRoutingRoundTrip(t *testing.T) {
	s := multi.New(3, template(), steins.Factory, 4096)
	r := rng.New(5)
	expect := map[uint64][64]byte{}
	lines := s.DataBytes() / 64
	for i := 0; i < 5000; i++ {
		addr := r.Uint64n(lines) * 64
		v := pattern(addr, byte(i))
		if err := s.WriteData(5, addr, v); err != nil {
			t.Fatal(err)
		}
		expect[addr] = v
	}
	for addr, want := range expect {
		got, err := s.ReadData(1, addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if got != want {
			t.Fatalf("read %#x: wrong data", addr)
		}
	}
}

func TestInterleavingSpreadsLoad(t *testing.T) {
	s := multi.New(4, template(), steins.Factory, 64)
	for i := uint64(0); i < 4000; i++ {
		if err := s.WriteData(5, i*64, pattern(i*64, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range s.Controllers() {
		w := c.Stats().DataWrites
		if w < 900 || w > 1100 {
			t.Fatalf("controller %d handled %d/4000 writes; interleaving skewed", i, w)
		}
	}
}

func TestParallelismImprovesMakespan(t *testing.T) {
	// The §IV-F claim: requests to different DIMMs execute in parallel, so
	// a multi-controller system finishes a memory-bound stream faster than
	// one controller handling everything.
	run := func(n int) uint64 {
		s := multi.New(n, template(), steins.Factory, 64)
		r := rng.New(9)
		lines := uint64(1<<20) / 64 * uint64(n) // scale footprint with n
		for i := 0; i < 8000; i++ {
			addr := r.Uint64n(lines) * 64
			if err := s.WriteData(3, addr, pattern(addr, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		return s.ExecCycles()
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Fatalf("4 controllers (%d cycles) not faster than 1 (%d)", four, one)
	}
}

func TestMachineWideCrashRecover(t *testing.T) {
	s := multi.New(4, template(), steins.Factory, 4096)
	r := rng.New(11)
	expect := map[uint64][64]byte{}
	lines := s.DataBytes() / 64
	for i := 0; i < 6000; i++ {
		addr := r.Uint64n(lines) * 64
		v := pattern(addr, byte(i))
		if err := s.WriteData(5, addr, v); err != nil {
			t.Fatal(err)
		}
		expect[addr] = v
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.NodesRecovered == 0 {
		t.Fatal("nothing recovered across the machine")
	}
	for addr, want := range expect {
		got, err := s.ReadData(1, addr)
		if err != nil || got != want {
			t.Fatalf("post-recovery read %#x: %v", addr, err)
		}
	}
}

func TestParallelRecoveryTimeIsMax(t *testing.T) {
	s := multi.New(4, template(), steins.Factory, 4096)
	r := rng.New(13)
	lines := s.DataBytes() / 64
	for i := 0; i < 6000; i++ {
		addr := r.Uint64n(lines) * 64
		if err := s.WriteData(5, addr, pattern(addr, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Reads summed across 4 DIMMs; time is the slowest DIMM, so it must be
	// well below the serial read cost.
	serialNS := float64(rep.NVMReads) * 100
	if rep.TimeNS >= serialNS {
		t.Fatalf("parallel recovery %.0f ns not below serial bound %.0f ns", rep.TimeNS, serialNS)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { multi.New(0, template(), steins.Factory, 64) },
		func() { multi.New(2, template(), steins.Factory, 0) },
		func() { multi.New(2, template(), steins.Factory, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad multi config did not panic")
				}
			}()
			f()
		}()
	}
}

// TestBadAddressTypedError pins that a bad global address is refused with
// a typed error naming the caller's address, never a panic or the
// channel-local address.
func TestBadAddressTypedError(t *testing.T) {
	s := multi.New(2, template(), steins.Factory, 64)
	for _, tc := range []struct {
		addr uint64
		want error
	}{
		{s.DataBytes(), nvmem.ErrOutOfRange},
		{s.DataBytes() + 64, nvmem.ErrOutOfRange},
		{0x41, nvmem.ErrUnaligned},
	} {
		werr := s.WriteData(1, tc.addr, [64]byte{})
		_, rerr := s.ReadData(1, tc.addr)
		for _, err := range []error{werr, rerr} {
			if !errors.Is(err, tc.want) {
				t.Fatalf("address %#x: error %v, want %v", tc.addr, err, tc.want)
			}
			if name := fmt.Sprintf("%#x", tc.addr); !strings.Contains(err.Error(), name) {
				t.Fatalf("address %#x: error %q does not name %s", tc.addr, err, name)
			}
		}
	}
	if st := s.Stats(); st.DataReads+st.DataWrites != 0 {
		t.Fatalf("refused accesses reached a controller: %+v", st)
	}
}
