package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/scheme/steins"
)

// payloadFixture is a two-controller server state with every column
// populated.
func payloadFixture(t testing.TB) *ServerState {
	t.Helper()
	mk := func(seed byte) memctrl.ControllerState {
		c := memctrl.New(memctrl.DefaultConfig(64<<10, true), steins.Factory)
		for i := 0; i < 40; i++ {
			if err := c.WriteData(uint64(i), uint64(i%32)*64, [64]byte{seed, byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := c.State()
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	return &ServerState{Tenants: []TenantState{{Name: "a", Scheme: "Steins-SC", AppliedSeq: 40,
		PGs: []PGState{{Channels: []memctrl.ControllerState{mk(1), mk(2)}}}}}}
}

// runFixture is a two-channel run with every column populated.
func runFixture(t testing.TB) *RunState {
	t.Helper()
	return capture(t, testHeader("Steins-SC", 2, 200), 150)
}

// wrap frames a payload in a valid envelope of the given kind.
func wrap(t testing.TB, kind uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, kind, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadBoth parses an envelope through Decode and, from a file, through
// LoadFile, which must agree: both accept and the states encode to the
// same bytes, or both refuse with the same error. It returns Decode's
// result.
func loadBoth[S any, P checkpoint[S]](t *testing.T, env []byte) (P, error) {
	t.Helper()
	st, err := Decode[S, P](bytes.NewReader(env))
	path := filepath.Join(t.TempDir(), "ckpt")
	if werr := os.WriteFile(path, env, 0o644); werr != nil {
		t.Fatal(werr)
	}
	fst, ferr := LoadFile[S, P](path)
	switch {
	case err != nil || ferr != nil:
		if err == nil || ferr == nil || err.Error() != ferr.Error() {
			t.Fatalf("Decode: %v; LoadFile: %v", err, ferr)
		}
		return nil, err
	case st == nil || fst == nil:
		t.Fatal("a loader accepted without a state")
	}
	a, aerr := Encode[S](st)
	b, berr := Encode[S](fst)
	if aerr != nil || berr != nil || !bytes.Equal(a, b) {
		t.Fatalf("the loaders' states encode differently (%v, %v)", aerr, berr)
	}
	return st, nil
}

// payloadKind is one of the two state families the sectioned payload
// carries, for the tests that hold both to the same framing.
type payloadKind struct {
	name string
	kind uint32
	// payload encodes the kind's fixture, and whole gob-encodes it with
	// its columns, as a skeleton that still carries them.
	payload, whole func(t testing.TB) []byte
	// load parses an envelope through both loaders (loadBoth) and
	// reports whether they accepted it.
	load func(t *testing.T, env []byte) (bool, error)
	// decode and loadFile are Decode and LoadFile of the kind.
	decode   func(env []byte) error
	loadFile func(path string) error
}

func kindOf[S any, P checkpoint[S]](name string, fixture func(testing.TB) P) payloadKind {
	return payloadKind{
		name: name,
		kind: P(nil).kind(),
		payload: func(t testing.TB) []byte {
			p, err := encodePayload[S](fixture(t))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		whole: func(t testing.TB) []byte {
			p, err := encode(fixture(t))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		load: func(t *testing.T, env []byte) (bool, error) {
			st, err := loadBoth[S, P](t, env)
			return st != nil, err
		},
		decode: func(env []byte) error {
			_, err := Decode[S, P](bytes.NewReader(env))
			return err
		},
		loadFile: func(path string) error {
			_, err := LoadFile[S, P](path)
			return err
		},
	}
}

// payloadKinds lists both kinds.
var payloadKinds = []payloadKind{kindOf("server", payloadFixture), kindOf("run", runFixture)}

// TestServerPayloadSections pins the sectioned layout of both kinds: a
// fixed header (layout word, skeleton length), the gob skeleton with every
// column emptied, then each controller's columns raw in Columns order; the
// parsed columns are sub-slices of the bytes the payload was read into,
// and the state encodes back to the same bytes.
func TestServerPayloadSections(t *testing.T) {
	t.Run("server", func(t *testing.T) { checkSections(t, payloadFixture(t)) })
	t.Run("run", func(t *testing.T) { checkSections(t, runFixture(t)) })
}

func checkSections[S any, P checkpoint[S]](t *testing.T, st P) {
	payload, err := encodePayload[S](st)
	if err != nil {
		t.Fatal(err)
	}
	if w := binary.LittleEndian.Uint64(payload); w != memctrl.StateLayout {
		t.Fatalf("layout word %d, want %d", w, memctrl.StateLayout)
	}
	skLen := binary.LittleEndian.Uint64(payload[8:])
	off := payloadHeaderLen + int(skLen)
	for _, cs := range st.controllers() {
		for j, col := range columns(cs) {
			if n := binary.LittleEndian.Uint64(payload[off:]); n != uint64(len(col)) {
				t.Fatalf("column %d section is %d bytes, want %d", j, n, len(col))
			}
			off += 8
			if !bytes.Equal(payload[off:off+len(col)], col) {
				t.Fatalf("column %d section differs from the column", j)
			}
			off += len(col)
		}
	}
	if off != len(payload) {
		t.Fatalf("sections end at %d of %d payload bytes", off, len(payload))
	}
	back, err := parse[S, P](payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := back.controllers()[1].Device.Lines.Columns()[1]
	if len(lines) == 0 || &lines[0] != &payload[bytes.Index(payload, lines)] {
		t.Fatal("parsed line blocks are not a sub-slice of the payload")
	}
	again, err := encodePayload[S](back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("parse∘encode is not the identity")
	}
	// A parsed column is capped at its section: growing it cannot write
	// over the bytes that follow.
	_ = append(back.controllers()[0].Device.Lines.Columns()[0], 0xff)
	if !bytes.Equal(again, payload) {
		t.Fatal("appending to a parsed column overwrote the payload")
	}
	for _, cs := range st.controllers() {
		if cs.Tags.Len() == 0 {
			t.Fatal("encoding emptied the caller's columns")
		}
	}
}

// TestServerPayloadRejectsBadFraming pins that a CRC-valid payload of
// either kind whose framing is not what encodePayload writes is refused as
// ErrCorrupt by both loaders, naming what is wrong, and never panics.
func TestServerPayloadRejectsBadFraming(t *testing.T) {
	type framing struct {
		name, why string
		payload   []byte
	}
	cases := map[string][]framing{}
	for _, k := range payloadKinds {
		good := k.payload(t)
		skLen := int(binary.LittleEndian.Uint64(good[8:]))
		firstSection := payloadHeaderLen + skLen
		with := func(fn func(p []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
		// A skeleton that still carries its columns, framed by hand.
		fat := k.whole(t)
		fatPayload := binary.LittleEndian.AppendUint64(nil, memctrl.StateLayout)
		fatPayload = binary.LittleEndian.AppendUint64(fatPayload, uint64(len(fat)))
		fatPayload = append(append(fatPayload, fat...), good[firstSection:]...)
		cases[k.name] = []framing{
			{"empty", "shorter than its", nil},
			{"header cut", "shorter than its", good[:payloadHeaderLen-1]},
			{"older layout", "payload layout 0x3, want 6", with(func(p []byte) []byte {
				binary.LittleEndian.PutUint64(p, 3)
				return p
			})},
			{"skeleton past the payload", "skeleton of", with(func(p []byte) []byte {
				binary.LittleEndian.PutUint64(p[8:], uint64(len(p)))
				return p
			})},
			{"skeleton with trailing bytes", "after the skeleton", func() []byte {
				p := binary.LittleEndian.AppendUint64(nil, memctrl.StateLayout)
				p = binary.LittleEndian.AppendUint64(p, uint64(skLen+1))
				p = append(p, good[payloadHeaderLen:firstSection]...)
				return append(append(p, 0), good[firstSection:]...)
			}()},
			{"skeleton carrying a column", "skeleton carries column", fatPayload},
			{"section length cut off", "section length cut off", good[:firstSection+4]},
			{"truncated last section", "bytes left", good[:len(good)-1]},
			{"section past the payload", "bytes left", with(func(p []byte) []byte {
				binary.LittleEndian.PutUint64(p[firstSection:], 1<<62)
				return p
			})},
			{"word column not whole words", "not a whole number of words", func() []byte {
				n := int(binary.LittleEndian.Uint64(good[firstSection:]))
				p := append([]byte(nil), good[:firstSection]...)
				p = binary.LittleEndian.AppendUint64(p, uint64(n-4))
				p = append(p, good[firstSection+8:firstSection+8+n-4]...)
				return append(p, good[firstSection+8+n:]...)
			}()},
			{"trailing bytes", "after the last column", append(append([]byte(nil), good...), 0)},
		}
	}
	for i := range cases["server"] {
		t.Run(cases["server"][i].name, func(t *testing.T) {
			for _, k := range payloadKinds {
				tc := cases[k.name][i]
				ok, err := k.load(t, wrap(t, k.kind, tc.payload))
				if ok || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
					t.Fatalf("%s: err = %v, want ErrCorrupt naming %q", k.name, err, tc.why)
				}
			}
		})
	}
}

// TestLoadersStopAtTheirSections pins that both loaders of either kind
// split off no more column sections than the skeleton's controllers frame.
// A CRC-valid payload padded with 2 MiB of zeros, a quarter of a million
// empty sections, is refused as trailing bytes, and neither loader
// allocates much beyond the file for it: walking every length word kept a
// slice header per section, three times the padding, and read each length
// word with a syscall of its own.
func TestLoadersStopAtTheirSections(t *testing.T) {
	for _, k := range payloadKinds {
		const pad = 2 << 20
		env := wrap(t, k.kind, append(k.payload(t), make([]byte, pad)...))
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(path, env, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, load := range []struct {
			name string
			fn   func() error
		}{
			{"Decode", func() error { return k.decode(env) }},
			{"LoadFile", func() error { return k.loadFile(path) }},
		} {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			err := load.fn()
			runtime.ReadMemStats(&ms)
			want := fmt.Sprintf("%d bytes after the last column section", pad)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s %s: %v, want ErrCorrupt naming %q", k.name, load.name, err, want)
			}
			if grew := ms.TotalAlloc - before; grew > 2*uint64(len(env)) {
				t.Fatalf("%s %s allocated %d bytes for a %d-byte file", k.name, load.name, grew, len(env))
			}
		}
	}
}

// TestServerLayoutFixtures pins that checkpoints of older layouts are
// refused as ErrCorrupt with an error naming the layout. layout2-server.snap
// is a two-PG, two-channel Steins-SC pool checkpointed by the all-gob
// layout-2 encoder; its gob stream does not start with the layout word.
// identity-hash-server.snap is a two-PG Steins-GC hash tenant checkpointed
// in layout 3, when hash placement groups kept identity local addresses.
// layout4-server.snap is a two-PG Steins-SC pool checkpointed in layout 4,
// which listed the device's lines and wear counts one by one.
// layout5-server.snap is a two-PG Steins-SC pool checkpointed in layout 5,
// which listed the data tags one by one in four columns.
func TestServerLayoutFixtures(t *testing.T) {
	for _, tc := range []struct{ file, why string }{
		{"layout2-server.snap", "payload layout"},
		{"identity-hash-server.snap", "payload layout 0x3, want 6"},
		{"layout4-server.snap", "payload layout 0x4, want 6"},
		{"layout5-server.snap", "payload layout 0x5, want 6"},
	} {
		env, err := os.ReadFile("testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		back, err := loadBoth[ServerState](t, env)
		if back != nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s: %v, want ErrCorrupt naming %q", tc.file, err, tc.why)
		}
	}
}

// TestLoadServerFileNotRegular pins the loader's path for a file that is
// not regular, whose size bounds nothing: it is read whole first, so a
// directory fails with the read's own error, not as a truncated envelope.
func TestLoadServerFileNotRegular(t *testing.T) {
	for _, k := range payloadKinds {
		err := k.loadFile(t.TempDir())
		if err == nil || errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "is a directory") {
			t.Fatalf("%s: LoadFile(directory) = %v, want the read error", k.name, err)
		}
	}
}
