//go:build linux

package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"steins/internal/arena"
	"steins/internal/snapshot"
	"steins/securemem"
)

// TestLoadMappedCheckpointLifetime pins the lifetime of a checkpoint that
// snapshot.LoadFile maps from its file, over 300 restarts in one process
// (load, NewPool, RestoreState, CrashRecoverAll, writes, Close):
//   - while the pool serves, the file is mapped, and after Close no
//     mapping of it is left (/proc/self/maps);
//   - the resident set does not grow with the restarts;
//   - writes after the restore (Do, CrashRecoverAll, and now and then a
//     State saved to another file) leave the checkpoint file's bytes as
//     they were;
//   - after Close, Do and State return errors, and the loaded state's
//     tables read as released and refuse to encode, without touching the
//     unmapped bytes.
func TestLoadMappedCheckpointLifetime(t *testing.T) {
	const restarts = 300
	cfg := Config{Tenants: []TenantConfig{{Name: "a", Scheme: securemem.SteinsSC,
		PGs: 2, Channels: 2, PoolBytes: 512 << 10}}}
	src, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := cfg.Tenants[0].PoolBytes / 64
	for a := uint64(0); a < lines; a += 64 {
		ops := make([]OpSpec, 64)
		for i := range ops {
			ops[i] = OpSpec{IsWrite: true, Addr: (a + uint64(i)) * 64, Data: [64]byte{byte(a), byte(i), 1}}
		}
		if _, aerr := src.Do("a", ops); aerr != nil {
			t.Fatal(aerr)
		}
	}
	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "server.ckpt")
	if err := snapshot.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	sum := fileSum(t, path)

	var rssBase int
	for i := 0; i < restarts; i++ {
		loaded, err := snapshot.LoadFile[snapshot.ServerState](path)
		if err != nil {
			t.Fatal(err)
		}
		if !mapsName(t, path) {
			t.Fatalf("restart %d: the loaded checkpoint is not mapped", i)
		}
		p, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RestoreState(loaded); err != nil {
			t.Fatal(err)
		}
		if recs := p.CrashRecoverAll(); !recs[0].Recovered {
			t.Fatalf("restart %d: %+v", i, recs[0])
		}
		addr := uint64(i) % lines * 64
		res, aerr := p.Do("a", []OpSpec{{IsWrite: true, Addr: addr, Data: [64]byte{0xee, byte(i)}}, {Addr: addr}})
		if aerr != nil || res[1].Err != nil || res[1].Data != ([64]byte{0xee, byte(i)}) {
			t.Fatalf("restart %d: write then read = %+v, %v", i, res, aerr)
		}
		if i%50 == 0 {
			back, err := p.State()
			if err != nil {
				t.Fatal(err)
			}
			if err := snapshot.SaveFile(filepath.Join(dir, "other.ckpt"), back); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		if mapsName(t, path) {
			t.Fatalf("restart %d: the checkpoint is still mapped after Close", i)
		}
		if _, aerr := p.Do("a", []OpSpec{{Addr: addr}}); aerr == nil {
			t.Fatalf("restart %d: Do after Close was served", i)
		}
		if _, err := p.State(); !errors.Is(err, ErrClosed) {
			t.Fatalf("restart %d: State after Close = %v, want ErrClosed", i, err)
		}
		if lt := loaded.Tenants[0].PGs[0].Channels[0].Device.Lines; !lt.Released() || lt.Len() != 0 {
			t.Fatalf("restart %d: an adopted table of a closed pool reads as %d chunks, released %v", i, lt.Len(), lt.Released())
		}
		if _, err := snapshot.Encode(loaded); !errors.Is(err, arena.ErrReleased) {
			t.Fatalf("restart %d: Encode of the closed pool's checkpoint = %v, want ErrReleased", i, err)
		}
		switch rss := vmRSS(t); {
		case i == 30:
			rssBase = rss
		case i > 30 && rss > rssBase+64<<10:
			t.Fatalf("restart %d: VmRSS %d KiB, %d KiB at restart 30", i, rss, rssBase)
		}
	}
	if fileSum(t, path) != sum {
		t.Fatal("writes after a restore changed the checkpoint file")
	}
}

// fileSum is the SHA-256 of a file's bytes.
func fileSum(t *testing.T, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// mapsName reports whether a line of /proc/self/maps names path.
func mapsName(t *testing.T, path string) bool {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return bytes.Contains(b, []byte(path))
}

// vmRSS is the process's resident set in KiB (/proc/self/status).
func vmRSS(t *testing.T) int {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kib, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
			if err != nil {
				t.Fatal(err)
			}
			return kib
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}
