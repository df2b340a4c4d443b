package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"steins/internal/arena"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/pipesit"
	"steins/internal/scheme/schemetest"
	"steins/internal/scheme/steins"
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
			if err := snapshot.SaveFile(path, st); err != nil {
				t.Fatal(err)
			}
			want, err := snapshot.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := snapshot.LoadFile[snapshot.ServerState](path)
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

// TestRestoreStateShapeAllOrNothing pins that the whole checkpoint's shape
// is checked before any controller restores: a checkpoint whose last PG
// has one channel too few is refused, and the pool is left as it was
// built, PG 0 included, in its statistics and in every address it reads.
func TestRestoreStateShapeAllOrNothing(t *testing.T) {
	src := checkpointPool(t, 2, 300)
	defer src.Close()
	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	last := &st.Tenants[0].PGs[len(st.Tenants[0].PGs)-1]
	last.Channels = last.Channels[:len(last.Channels)-1]
	dst := checkpointPool(t, 2, 0)
	defer dst.Close()
	fresh := checkpointPool(t, 2, 0)
	defer fresh.Close()
	err = dst.RestoreState(st)
	if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "pg 1 checkpoint has 1 channels, config has 2") {
		t.Fatalf("RestoreState = %v, want ErrCorrupt naming pg 1's channel count", err)
	}
	if got, want := dst.Tenant("a").PGStats(), fresh.Tenant("a").PGStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("refused restore changed the pool's statistics:\n got %+v\nwant %+v", got, want)
	}
	for addr := uint64(0); addr < 2*2*32*64; addr += 64 {
		got, aerr := dst.Do("a", []OpSpec{{Addr: addr}})
		want, werr := fresh.Do("a", []OpSpec{{Addr: addr}})
		if aerr != nil || werr != nil || got[0].Err != nil || want[0].Err != nil {
			t.Fatalf("read %#x: %v %v %v %v", addr, aerr, werr, got[0].Err, want[0].Err)
		}
		if got[0].Data != want[0].Data {
			t.Fatalf("read %#x after a refused restore differs from a fresh pool's", addr)
		}
	}
}

// TestRestoreStateFirstErrorInOrder pins which refusal a checkpoint with
// several unrestorable controllers reports, whatever order the restore
// workers reach them in: the first in tenant/PG/channel order.
func TestRestoreStateFirstErrorInOrder(t *testing.T) {
	src := checkpointPool(t, 2, 300)
	defer src.Close()
	for range 4 {
		// A restore adopts the valid channels' blocks, so each round
		// needs a state of its own.
		st, err := src.State()
		if err != nil {
			t.Fatal(err)
		}
		st.Tenants[0].PGs[0].Channels[1].Layout = 0
		st.Tenants[0].PGs[1].Channels[0].Layout = 0
		tags := &st.Tenants[0].PGs[1].Channels[1].Tags
		*tags = tableOf(nil, tags.Columns()[1])
		dst := checkpointPool(t, 2, 0)
		err = dst.RestoreState(st)
		dst.Close()
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.HasPrefix(err.Error(), `server: tenant "a" pg 0 channel 1: `) {
			t.Fatalf("RestoreState = %v, want the refusal of pg 0 channel 1", err)
		}
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

// checkpointSeed is one FuzzServerCheckpoint input: a payload, wrapped in
// a valid KindServer envelope that flip and cut then damage (see damage).
type checkpointSeed struct {
	payload   []byte
	flip, cut uint32
}

// damage applies an input's envelope damage to env: flip > 0 inverts byte
// flip-1 (modulo the envelope's length) and cut > 0 drops cut bytes
// (modulo the length + 1) off the end.
func damage(env []byte, flip, cut uint32) []byte {
	if flip > 0 {
		env[(flip-1)%uint32(len(env))] ^= 0xff
	}
	if cut > 0 {
		env = env[:len(env)-int(cut%uint32(len(env)+1))]
	}
	return env
}

// envelope wraps payload in a valid KindServer envelope.
func envelope(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteEnvelope(&buf, snapshot.KindServer, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointSeeds are FuzzServerCheckpoint's starting inputs: a valid
// checkpoint of the fuzz pool, twelve crafted payloads in intact envelopes,
// each refused for one reason (a truncated column section, zero-length
// sections after the last column, a line chunk index past the device, a
// repeated wear chunk index, an all-zero line chunk, a line block one
// line short, a tag chunk index that does not ascend, a tag past the data
// region though inside the device, a tag written flag of 2, a cached split
// leaf with a minor counter of 64, a Steins record line past the device, a
// Steins NV-buffer entry above the tree), a CRC-valid skeleton that is not
// gob, and two
// damaged envelopes of the valid checkpoint (a flipped skeleton byte, a
// file cut short inside its last column section).
func checkpointSeeds(tb testing.TB) map[string]checkpointSeed {
	tb.Helper()
	p := checkpointPool(tb, 1, 120)
	defer p.Close()
	craft := func(fn func(cs *memctrl.ControllerState)) checkpointSeed {
		st, err := p.State()
		if err != nil {
			tb.Fatal(err)
		}
		fn(&st.Tenants[0].PGs[1].Channels[0])
		env, err := snapshot.Encode(st)
		if err != nil {
			tb.Fatal(err)
		}
		return checkpointSeed{payload: fuzzPayload(tb, env)}
	}
	env := checkpointBytes(tb, p)
	valid := fuzzPayload(tb, env)
	// The skeleton starts after the envelope header and the payload's
	// 16-byte head; flip is 1-based.
	skeleton := uint32(len(env)-len(valid)) + 16
	badGob := append([]byte(nil), valid...)
	copy(badGob[16:], "\xff\xff\xff\xff")
	return map[string]checkpointSeed{
		"valid-checkpoint":     {payload: valid},
		"truncated-section":    {payload: valid[:len(valid)-3]},
		"zero-length-sections": {payload: append(valid[:len(valid):len(valid)], make([]byte, 4096)...)},
		"line-past-device": craft(func(cs *memctrl.ControllerState) {
			cs.Device.Lines = setChunk(cs.Device.Lines, cs.Device.Lines.Len()-1, 1<<40)
		}),
		"duplicate-chunk": craft(func(cs *memctrl.ControllerState) {
			cs.Device.Wear = repeatChunk(cs.Device.Wear, nvmem.WearBlockLen)
		}),
		"zero-chunk": craft(func(cs *memctrl.ControllerState) {
			cs.Device.Lines = tableOf(cs.Device.Lines.Columns()[0], make([]byte, len(cs.Device.Lines.Columns()[1])))
		}),
		"short-block": craft(func(cs *memctrl.ControllerState) {
			b := cs.Device.Lines.Columns()[1]
			cs.Device.Lines = tableOf(cs.Device.Lines.Columns()[0], b[:len(b)-nvmem.LineSize])
		}),
		// The fuzz pool's data region is 32 lines, one tag chunk: the
		// tag table's chunk indices can repeat but not descend.
		"descending-tags": craft(func(cs *memctrl.ControllerState) {
			cs.Tags = repeatChunk(cs.Tags, arena.ChunkLen*17)
		}),
		"tag-past-data-region": craft(func(cs *memctrl.ControllerState) {
			cs.Tags = setTagByte(cs.Tags, 32*17, 1) // line 32's MAC
		}),
		"written-byte-2": craft(func(cs *memctrl.ControllerState) {
			cs.Tags = setTagByte(cs.Tags, 16, 2) // line 0's written flag
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
		"record-line-past-device": craft(func(cs *memctrl.ControllerState) {
			cs.Policy = schemetest.EditState(tb, cs.Policy, func(st *steins.State) { st.Records.Entries[0].Addr += 1 << 40 })
		}),
		"nv-buffer-level-42": craft(func(cs *memctrl.ControllerState) {
			cs.Policy = schemetest.EditState(tb, cs.Policy, func(st *steins.State) {
				st.Buf = append([]memctrl.NodeCounter{{NodeRef: memctrl.NodeRef{Level: 42}, Counter: 1}}, st.Buf...)
			})
		}),
		"bad-gob-skeleton":      {payload: badGob},
		"flipped-skeleton-byte": {payload: valid, flip: skeleton + 3},
		"file-cut-in-section":   {payload: valid, cut: 3},
	}
}

// tableOf is arena.TableFrom for columns known to be well formed.
func tableOf(chunks, blocks []byte) arena.Table {
	t, err := arena.TableFrom(chunks, blocks)
	if err != nil {
		panic(err)
	}
	return t
}

// setChunk returns t with chunk index i set to v.
func setChunk(t arena.Table, i int, v uint64) arena.Table {
	idx := append([]byte(nil), t.Columns()[0]...)
	binary.LittleEndian.PutUint64(idx[8*i:], v)
	return tableOf(idx, t.Columns()[1])
}

// repeatChunk returns the table listing t's first chunk, of blockLen
// bytes, twice.
func repeatChunk(t arena.Table, blockLen int) arena.Table {
	idx, b := t.Columns()[0][:8], t.Columns()[1][:blockLen]
	return tableOf(append(append([]byte(nil), idx...), idx...), append(append([]byte(nil), b...), b...))
}

// setTagByte returns t with byte off of its blocks set to v.
func setTagByte(t arena.Table, off int, v byte) arena.Table {
	b := append([]byte(nil), t.Columns()[1]...)
	b[off] = v
	return tableOf(t.Columns()[0], b)
}

// loadBoth parses env through snapshot.Decode and, from a file,
// through snapshot.LoadFile, which must agree: both accept and the
// states encode to the same bytes, or both refuse with the same error.
// It returns Decode's result.
func loadBoth(t *testing.T, env []byte) (*snapshot.ServerState, error) {
	t.Helper()
	st, err := snapshot.Decode[snapshot.ServerState](bytes.NewReader(env))
	path := filepath.Join(t.TempDir(), "server.ckpt")
	if werr := os.WriteFile(path, env, 0o644); werr != nil {
		t.Fatal(werr)
	}
	fst, ferr := snapshot.LoadFile[snapshot.ServerState](path)
	switch {
	case err != nil || ferr != nil:
		if err == nil || ferr == nil || err.Error() != ferr.Error() {
			t.Fatalf("Decode: %v; LoadFile: %v", err, ferr)
		}
		return nil, err
	case st == nil || fst == nil:
		t.Fatal("a loader accepted without a state")
	}
	a, aerr := snapshot.Encode(st)
	b, berr := snapshot.Encode(fst)
	if aerr != nil || berr != nil || !bytes.Equal(a, b) {
		t.Fatalf("the loaders' states encode differently (%v, %v)", aerr, berr)
	}
	return st, nil
}

// FuzzServerCheckpoint wraps arbitrary payload bytes in a KindServer
// envelope, damages it as the input's flip and cut say, and loads it
// through both loaders, which must agree (loadBoth). An accepted state is
// restored into a fresh pool of the seeds' shape. No input may panic, and
// every refusal of an intact envelope must wrap snapshot.ErrCorrupt. An
// accepted payload must come back through State → Save with its column
// sections byte for byte, a second round must be a fixed point, and a
// payload already in this process's canonical gob form (its skeleton
// re-encodes to itself and every scheme blob re-saves to itself) must come
// back as the same bytes. gob
// admits other encodings of one value, and numbers its types by process
// history, so only that form can be held to byte identity.
func FuzzServerCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed.payload, seed.flip, seed.cut)
	}
	restore := func(t *testing.T, env []byte) (*Pool, *snapshot.ServerState, error) {
		p := checkpointPool(t, 1, 0)
		st, err := loadBoth(t, env)
		if err == nil {
			err = p.RestoreState(st)
		}
		if err != nil && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
		}
		return p, st, err
	}
	f.Fuzz(func(t *testing.T, payload []byte, flip, cut uint32) {
		env := envelope(t, payload)
		if flip != 0 || cut != 0 {
			loadBoth(t, damage(env, flip, cut))
			return
		}
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
			for k := range in.Tenants[i].PGs {
				for c, cs := range in.Tenants[i].PGs[k].Channels {
					bs := back.Tenants[i].PGs[k].Channels[c]
					backTables := bs.Tables()
					for j, tb := range cs.Tables() {
						inCols, backCols := tb.Columns(), backTables[j].Columns()
						if !bytes.Equal(inCols[0], backCols[0]) || !bytes.Equal(inCols[1], backCols[1]) {
							t.Fatalf("tenant %d pg %d channel %d: table %d changed through a restore", i, k, c, j)
						}
					}
					canonical = canonical && bytes.Equal(cs.Policy, bs.Policy)
				}
			}
		}
		reenc, err := snapshot.Encode(in)
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
// the fuzz target holds it to byte identity, and each other seed is
// refused, by both loaders alike, with its own sentinel for its own
// reason. A flipped skeleton byte is a checksum failure before it is bad
// gob.
func TestServerCheckpointSeeds(t *testing.T) {
	why := map[string]struct {
		sentinel error
		reason   string
	}{
		"truncated-section":       {snapshot.ErrCorrupt, "bytes left"},
		"zero-length-sections":    {snapshot.ErrCorrupt, "4096 bytes after the last column section"},
		"line-past-device":        {snapshot.ErrCorrupt, "nvmem: line table: chunk 0 (index 1099511627776) lies past"},
		"duplicate-chunk":         {snapshot.ErrCorrupt, "nvmem: wear table: chunk 1 (index 0) does not ascend"},
		"zero-chunk":              {snapshot.ErrCorrupt, "nvmem: line table: chunk 0 (index 0) is all zero"},
		"short-block":             {snapshot.ErrCorrupt, "nvmem: line table: 32704 bytes of blocks for 1 chunks"},
		"descending-tags":         {snapshot.ErrCorrupt, "memctrl: tag table: chunk 1 (index 0) does not ascend"},
		"tag-past-data-region":    {snapshot.ErrCorrupt, "memctrl: tag table: chunk 0 (index 0) holds slots past the 32 slots"},
		"written-byte-2":          {snapshot.ErrCorrupt, "memctrl: tag table: line 0 (0x0) written flag is 2"},
		"minor-counter-64":        {snapshot.ErrCorrupt, "minor counter 0 is 64"},
		"record-line-past-device": {snapshot.ErrCorrupt, "record line 0 at 0x1"},
		"nv-buffer-level-42":      {snapshot.ErrCorrupt, "NV buffer entry 0 (level 42 index 0)"},
		"bad-gob-skeleton":        {snapshot.ErrCorrupt, "skeleton: gob"},
		"flipped-skeleton-byte":   {snapshot.ErrChecksum, "payload CRC"},
		"file-cut-in-section":     {snapshot.ErrTruncated, "payload is"},
	}
	for name, seed := range checkpointSeeds(t) {
		env := damage(envelope(t, seed.payload), seed.flip, seed.cut)
		p := checkpointPool(t, 1, 0)
		st, err := loadBoth(t, env)
		if err == nil {
			err = p.RestoreState(st)
		}
		p.Close()
		if name == "valid-checkpoint" {
			if err != nil {
				t.Fatalf("valid seed refused: %v", err)
			}
			if again, _ := snapshot.Encode(st); !bytes.Equal(again, env) {
				t.Fatal("valid seed is not in canonical form")
			}
			continue
		}
		want := why[name]
		if !errors.Is(err, want.sentinel) || !strings.Contains(err.Error(), want.reason) {
			t.Errorf("%s: %v, want %v naming %q", name, err, want.sentinel, want.reason)
		}
	}
}

// TestRestoreStateRejectsCraftedSchemeState pins the refusal of three
// CRC-valid checkpoints whose scheme state names an entry the tree cannot
// hold. Restored, each would panic later: a Steins-SC record line past the
// device in the crash-recover step of a restarting daemon, and a Steins-SC
// NV-buffer entry or a PipeSIT-SC pipe entry above the tree in the first
// write that applies it. The unedited checkpoint of each pool restores,
// crash-recovers and serves.
func TestRestoreStateRejectsCraftedSchemeState(t *testing.T) {
	entry := func(level int) memctrl.NodeCounter {
		return memctrl.NodeCounter{NodeRef: memctrl.NodeRef{Level: level}, Counter: 1}
	}
	for _, tc := range []struct {
		name   string
		scheme securemem.Scheme
		edit   func(t *testing.T, blob []byte) []byte
		why    string
	}{
		{"Steins-SC record line past the device", securemem.SteinsSC, func(t *testing.T, blob []byte) []byte {
			return schemetest.EditState(t, blob, func(st *steins.State) { st.Records.Entries[0].Addr += 1 << 40 })
		}, "scheme Steins-SC state: record line 0 at 0x1"},
		{"Steins-SC NV-buffer entry at level 42", securemem.SteinsSC, func(t *testing.T, blob []byte) []byte {
			return schemetest.EditState(t, blob, func(st *steins.State) { st.Buf = append([]memctrl.NodeCounter{entry(42)}, st.Buf...) })
		}, "scheme Steins-SC state: NV buffer entry 0 (level 42 index 0): level outside"},
		{"PipeSIT-SC pipe entry at level 99", securemem.PipeSITSC, func(t *testing.T, blob []byte) []byte {
			return schemetest.EditState(t, blob, func(st *pipesit.State) { st.Pipe = append([]memctrl.NodeCounter{entry(99)}, st.Pipe...) })
		}, "scheme PipeSIT-SC state: update pipe entry 0 (level 99 index 0): level outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Tenants: []TenantConfig{{Name: "a", Scheme: tc.scheme, PGs: 2, PoolBytes: 2 * 64 * 64}}}
			src, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			for i := range 400 {
				op := OpSpec{Addr: uint64(i*7%128) * 64, IsWrite: true, Data: [64]byte{byte(i), 1}}
				if _, err := src.Do("a", []OpSpec{op}); err != nil {
					t.Fatal(err)
				}
			}
			restore := func(edit func(t *testing.T, blob []byte) []byte) (*Pool, error) {
				st, err := src.State()
				if err != nil {
					t.Fatal(err)
				}
				if edit != nil {
					cs := &st.Tenants[0].PGs[0].Channels[0]
					cs.Policy = edit(t, cs.Policy)
				}
				env, err := snapshot.Encode(st)
				if err != nil {
					t.Fatal(err)
				}
				if st, err = snapshot.Decode[snapshot.ServerState](bytes.NewReader(env)); err != nil {
					t.Fatal(err)
				}
				dst, err := NewPool(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(dst.Close)
				return dst, dst.RestoreState(st)
			}
			if _, err := restore(tc.edit); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("RestoreState = %v, want ErrCorrupt naming %q", err, tc.why)
			}
			dst, err := restore(nil)
			if err != nil {
				t.Fatal(err)
			}
			if rec := dst.CrashRecoverAll(); !rec[0].Recovered {
				t.Fatalf("unedited checkpoint does not recover: %v", rec[0].RecoverErr)
			}
			for i := range 128 {
				op := OpSpec{Addr: uint64(i) * 64, IsWrite: i%2 == 0, Data: [64]byte{byte(i), 2}}
				res, err := dst.Do("a", []OpSpec{op})
				if err != nil || res[0].Err != nil {
					t.Fatalf("op %d after recovery: %v %v", i, err, res[0].Err)
				}
			}
		})
	}
}
