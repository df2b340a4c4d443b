package server

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/snapshot"
	"steins/securemem"
)

// checkpointPool builds a two-PG Steins-SC pool over channels channels and
// writes enough to populate every table: lines, wear, tags and cached
// nodes, some of them dirty.
func checkpointPool(tb testing.TB, channels int, writes int) *Pool {
	tb.Helper()
	p, err := NewPool(Config{Tenants: []TenantConfig{{Name: "a", Scheme: securemem.SteinsSC,
		PGs: 2, Channels: channels, PoolBytes: 2 * uint64(channels) * 32 * 64}}})
	if err != nil {
		tb.Fatal(err)
	}
	lines := 2 * channels * 32
	for i := 0; i < writes; i++ {
		op := OpSpec{Addr: uint64(i*7%lines) * 64, IsWrite: true, Data: [64]byte{byte(i), byte(i >> 8), 1}}
		if _, err := p.Do("a", []OpSpec{op}); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// checkpointBytes is the pool's checkpoint image.
func checkpointBytes(tb testing.TB, p *Pool) []byte {
	tb.Helper()
	b, err := p.StateBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestServerCheckpointBytesStable pins Save → Load → Restore → State →
// Save as the identity on the checkpoint's bytes, at 1, 2 and 4 channels:
// the sectioned payload round-trips every table, and a restored pool
// captures back exactly what it was restored from.
func TestServerCheckpointBytesStable(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dch", channels), func(t *testing.T) {
			src := checkpointPool(t, channels, 300)
			defer src.Close()
			st, err := src.State()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "server.ckpt")
			if err := snapshot.SaveServerFile(path, st); err != nil {
				t.Fatal(err)
			}
			want, err := snapshot.EncodeServer(st)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := snapshot.LoadServerFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dst := checkpointPool(t, channels, 0)
			defer dst.Close()
			if err := dst.RestoreState(loaded); err != nil {
				t.Fatal(err)
			}
			if got := checkpointBytes(t, dst); !bytes.Equal(got, want) {
				t.Fatalf("restored pool checkpoints to %d bytes that differ from the %d it was restored from",
					len(got), len(want))
			}
		})
	}
}

// fuzzPayload is the payload of a checkpoint envelope.
func fuzzPayload(tb testing.TB, env []byte) []byte {
	tb.Helper()
	payload, err := snapshot.ReadEnvelope(bytes.NewReader(env), snapshot.KindServer)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// checkpointSeeds are FuzzServerCheckpoint's starting payloads: a valid
// checkpoint of the fuzz pool and four crafted ones, each refused for one
// reason (a truncated column section, a line address past the device, a
// descending tag column, a cached split leaf with a minor counter of 64).
func checkpointSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	p := checkpointPool(tb, 1, 120)
	defer p.Close()
	craft := func(fn func(cs *memctrl.ControllerState)) []byte {
		st, err := p.State()
		if err != nil {
			tb.Fatal(err)
		}
		fn(&st.Tenants[0].PGs[1].Channels[0])
		env, err := snapshot.EncodeServer(st)
		if err != nil {
			tb.Fatal(err)
		}
		return fuzzPayload(tb, env)
	}
	valid := fuzzPayload(tb, checkpointBytes(tb, p))
	return map[string][]byte{
		"valid-checkpoint":  valid,
		"truncated-section": valid[:len(valid)-3],
		"line-past-device": craft(func(cs *memctrl.ControllerState) {
			cs.Device.LineAddrs = replaceWord(cs.Device.LineAddrs, cs.Device.LineAddrs.Len()-1, 1<<40)
		}),
		"descending-tags": craft(func(cs *memctrl.ControllerState) {
			cs.TagAddrs = replaceWord(cs.TagAddrs, 0, cs.TagAddrs.At(1)+64)
		}),
		"minor-counter-64": craft(func(cs *memctrl.ControllerState) {
			for i, e := range cs.MetaCache.Entries {
				if e.Payload.IsSplit {
					n := e.Payload.Clone()
					n.Split.Minor[0] = 64
					cs.MetaCache.Entries[i].Payload = n
					return
				}
			}
			tb.Fatal("no split leaf cached")
		}),
	}
}

// replaceWord returns w with word i set to v.
func replaceWord(w nvmem.Words, i int, v uint64) nvmem.Words {
	var out nvmem.Words
	for j := range w.Len() {
		if j == i {
			out.Append(v)
		} else {
			out.Append(w.At(j))
		}
	}
	return out
}

// FuzzServerCheckpoint wraps arbitrary payload bytes in a valid KindServer
// envelope, decodes them and restores them into a fresh pool of the seeds'
// shape. No input may panic, and every refusal must wrap
// snapshot.ErrCorrupt. An accepted payload must come back through State →
// Save with its column sections byte for byte, a second round must be a
// fixed point, and a payload already in this process's canonical gob form
// (its skeleton re-encodes to itself, every scheme blob re-saves to itself
// and every tenant records its interleave) must come back as the same
// bytes. gob admits other encodings of one value, and numbers its types by
// process history, so only that form can be held to byte identity.
func FuzzServerCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	restore := func(t *testing.T, env []byte) (*Pool, *snapshot.ServerState, error) {
		p := checkpointPool(t, 1, 0)
		st, err := snapshot.DecodeServer(bytes.NewReader(env))
		if err == nil {
			err = p.RestoreState(st)
		}
		if err != nil && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
		}
		return p, st, err
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := snapshot.WriteEnvelope(&buf, snapshot.KindServer, payload); err != nil {
			t.Fatal(err)
		}
		env := buf.Bytes()
		p, in, err := restore(t, env)
		defer p.Close()
		if err != nil {
			return
		}
		out := checkpointBytes(t, p)
		p2, back, err := restore(t, out)
		defer p2.Close()
		if err != nil {
			t.Fatalf("a restored pool's own checkpoint is refused: %v", err)
		}
		if again := checkpointBytes(t, p2); !bytes.Equal(again, out) {
			t.Fatal("a second State → Save round changed the checkpoint")
		}
		canonical := true
		for i := range in.Tenants {
			// A restored pool records the interleave a checkpoint left out.
			canonical = canonical && in.Tenants[i].Interleave != ""
			for k := range in.Tenants[i].PGs {
				for c, cs := range in.Tenants[i].PGs[k].Channels {
					bs := back.Tenants[i].PGs[k].Channels[c]
					inCols, backCols := cs.Columns(), bs.Columns()
					for j := range inCols {
						if !bytes.Equal(inCols[j], backCols[j]) {
							t.Fatalf("tenant %d pg %d channel %d: column %d changed through a restore", i, k, c, j)
						}
					}
					canonical = canonical && bytes.Equal(cs.Policy, bs.Policy)
				}
			}
		}
		reenc, err := snapshot.EncodeServer(in)
		if err != nil {
			t.Fatal(err)
		}
		if canonical && bytes.Equal(reenc, env) && !bytes.Equal(out, env) {
			t.Fatal("an accepted canonical checkpoint does not come back as the same bytes")
		}
	})
}

// TestServerCheckpointSeeds pins what each FuzzServerCheckpoint seed
// exercises: the valid checkpoint restores and is in canonical form, so
// the fuzz target holds it to byte identity, and each crafted seed is
// refused as ErrCorrupt for its own reason.
func TestServerCheckpointSeeds(t *testing.T) {
	why := map[string]string{
		"truncated-section": "bytes left",
		"line-past-device":  "nvmem: line address",
		"descending-tags":   "memctrl: tag address 1",
		"minor-counter-64":  "minor counter 0 is 64",
	}
	for name, payload := range checkpointSeeds(t) {
		var buf bytes.Buffer
		if err := snapshot.WriteEnvelope(&buf, snapshot.KindServer, payload); err != nil {
			t.Fatal(err)
		}
		p := checkpointPool(t, 1, 0)
		st, err := snapshot.DecodeServer(bytes.NewReader(buf.Bytes()))
		if err == nil {
			err = p.RestoreState(st)
		}
		p.Close()
		if name == "valid-checkpoint" {
			if err != nil {
				t.Fatalf("valid seed refused: %v", err)
			}
			if again, _ := snapshot.EncodeServer(st); !bytes.Equal(again, buf.Bytes()) {
				t.Fatal("valid seed is not in canonical form")
			}
			continue
		}
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), why[name]) {
			t.Errorf("%s: %v, want ErrCorrupt naming %q", name, err, why[name])
		}
	}
}
