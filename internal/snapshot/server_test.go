package snapshot_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/scheme/steins"
	"steins/internal/snapshot"
)

// serverStateFixture builds a two-tenant server state from live
// controllers so the payload exercises the full ControllerState surface.
func serverStateFixture(t *testing.T) *snapshot.ServerState {
	t.Helper()
	mk := func(seed byte) memctrl.ControllerState {
		c := memctrl.New(memctrl.DefaultConfig(64<<10, true), steins.Factory)
		for i := 0; i < 40; i++ {
			var b [64]byte
			b[0], b[1] = seed, byte(i)
			if err := c.WriteData(1, uint64(i%32)*64, b); err != nil {
				t.Fatal(err)
			}
		}
		st, err := c.State()
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	return &snapshot.ServerState{Tenants: []snapshot.TenantState{
		{Name: "alice", Scheme: "Steins-SC", AppliedSeq: 40,
			PGs: []snapshot.PGState{{Channels: []memctrl.ControllerState{mk(1), mk(2)}}}},
		{Name: "bob", Scheme: "Steins-SC", AppliedSeq: 40,
			PGs: []snapshot.PGState{{Channels: []memctrl.ControllerState{mk(3)}}}},
	}}
}

// Identical server states must encode to identical bytes (the restart
// differential tests byte-compare checkpoints), and the round trip must
// preserve the full structure.
func TestServerStateDeterministicRoundTrip(t *testing.T) {
	st := serverStateFixture(t)
	a, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical server states encoded to different bytes")
	}
	back, err := snapshot.Decode[snapshot.ServerState](bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tenants) != 2 || back.Tenants[0].Name != "alice" || back.Tenants[1].Name != "bob" {
		t.Fatalf("round trip lost tenants: %+v", back.Tenants)
	}
	if len(back.Tenants[0].PGs[0].Channels) != 2 || back.Tenants[0].AppliedSeq != 40 {
		t.Fatalf("round trip lost PG shape: %+v", back.Tenants[0])
	}
	reencoded, err := snapshot.Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, reencoded) {
		t.Fatal("decode∘encode is not the identity")
	}
}

// Malformed server checkpoints must be rejected with the envelope
// sentinels — truncation, bit flips, and a wrong payload kind — and never
// decode to a half-valid state.
func TestServerStateNegative(t *testing.T) {
	good, err := snapshot.Encode(serverStateFixture(t))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(good) / 2, len(good) - 1} {
			if _, err := snapshot.Decode[snapshot.ServerState](bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{1, 9, 20, len(good) - 3} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x40
			if _, err := snapshot.Decode[snapshot.ServerState](bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("wrong-kind", func(t *testing.T) {
		var buf bytes.Buffer
		if err := snapshot.WriteEnvelope(&buf, snapshot.KindRepro, []byte("not a server state")); err != nil {
			t.Fatal(err)
		}
		_, err := snapshot.Decode[snapshot.ServerState](bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("wrong kind: err = %v, want ErrCorrupt", err)
		}
	})
}

// SaveFile must be atomic for a server state: a save over an existing checkpoint either
// fully replaces it or leaves the old bytes intact, and the 0644 mode is
// preserved.
func TestSaveServerFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "server.state")
	st := serverStateFixture(t)
	if err := snapshot.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Tenants[0].AppliedSeq = 99
	if err := snapshot.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, second) {
		t.Fatal("second save did not replace the checkpoint")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", info.Mode().Perm())
	}
	back, err := snapshot.LoadFile[snapshot.ServerState](path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tenants[0].AppliedSeq != 99 {
		t.Fatalf("loaded AppliedSeq = %d, want 99", back.Tenants[0].AppliedSeq)
	}
	// Leftover temp files would mean a failed cleanup path.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after saves, want 1", len(entries))
	}
}
