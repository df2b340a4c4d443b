package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"steins/internal/arena"
	"steins/internal/cache"
	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/server"
	"steins/internal/sit"
	"steins/internal/snapshot"
)

// TestParseTenantSpec pins the spec grammar, including the structured
// *server.ConfigError shape of every rejection.
func TestParseTenantSpec(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		tc, err := parseTenantSpec(
			"name=alpha,scheme=Steins-SC,pool=1M,pgs=4,channels=2,interleave=page,inflight=8,queue=64,batch=16,cache=128K,seed=0x2a")
		if err != nil {
			t.Fatal(err)
		}
		want := server.TenantConfig{Name: "alpha", Scheme: "Steins-SC", PGs: 4, PoolBytes: 1 << 20,
			Channels: 2, Interleave: "page", MaxInFlight: 8, MaxQueuedOps: 64, BatchOps: 16,
			MetaCacheBytes: 128 << 10, KeySeed: 42}
		if tc != want {
			t.Fatalf("parsed %+v, want %+v", tc, want)
		}
	})
	cases := []struct {
		name  string
		spec  string
		field string
	}{
		{"no-equals", "name=a,poolbytes", "tenant"},
		{"empty-value", "name=a,pool=", "tenant"},
		{"bad-pool", "name=a,pool=lots", "pool"},
		{"bad-pgs", "name=a,pgs=two", "pgs"},
		{"bad-channels", "name=a,channels=x", "channels"},
		{"bad-inflight", "name=a,inflight=many", "inflight"},
		{"bad-queue", "name=a,queue=deep", "queue"},
		{"bad-batch", "name=a,batch=big", "batch"},
		{"bad-cache", "name=a,cache=huge", "cache"},
		{"bad-seed", "name=a,seed=zz", "seed"},
		{"unknown-key", "name=a,color=red", "color"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTenantSpec(tc.spec)
			var ce *server.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *server.ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, ce)
			}
			if ce.Tenant != "a" && tc.name != "no-equals" {
				t.Fatalf("ConfigError.Tenant = %q, want \"a\" (%v)", ce.Tenant, ce)
			}
		})
	}
}

// TestRunRejectsBadConfigs pins exit code 2 and a field-naming diagnostic
// for configurations the daemon must refuse to start from.
func TestRunRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"no-tenants", nil, "Tenants"},
		{"bad-spec", []string{"-tenant", "name=a,pgs=two"}, "pgs"},
		{"unknown-scheme", []string{"-tenant", "name=a,scheme=Magic,pool=4096"}, "Scheme"},
		{"zero-pool", []string{"-tenant", "name=a,scheme=Steins-SC"}, "PoolBytes"},
		{"odd-pool", []string{"-tenant", "name=a,scheme=Steins-SC,pool=4096,pgs=3"}, "PoolBytes"},
		{"bad-interleave", []string{"-tenant", "name=a,scheme=Steins-SC,pool=4096,interleave=stripe"}, "Interleave"},
		{"bad-name", []string{"-tenant", "name=a/b,scheme=Steins-SC,pool=4096"}, "Name"},
		{"dup-name", []string{
			"-tenant", "name=a,scheme=Steins-SC,pool=4096",
			"-tenant", "name=a,scheme=Steins-SC,pool=4096"}, "duplicate"},
		{"neg-inflight", []string{"-tenant", "name=a,scheme=Steins-SC,pool=4096,inflight=-1"}, "MaxInFlight"},
		{"missing-config", []string{"-config", "/nonexistent/cfg.json"}, "cfg.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb, nil); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("stderr %q does not name %q", errb.String(), tc.want)
			}
		})
	}
}

// TestRunConfigFile pins the JSON config path: tenants from the file and
// the -tenant flag merge, and -print-config emits the normalized result.
func TestRunConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	cfg := server.Config{Tenants: []server.TenantConfig{
		{Name: "filed", Scheme: "SCUE-SC", PoolBytes: 4096, PGs: 2},
	}}
	data, _ := json.Marshal(cfg)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-config", path, "-tenant", "name=flagged,scheme=Steins-GC,pool=4096",
		"-print-config"}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	var back server.Config
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("print-config is not JSON: %v\n%s", err, out.String())
	}
	if len(back.Tenants) != 2 || back.Tenants[0].Name != "filed" || back.Tenants[1].Name != "flagged" {
		t.Fatalf("merged tenants wrong: %+v", back.Tenants)
	}
	if back.Tenants[1].MaxInFlight != server.DefaultMaxInFlight {
		t.Fatalf("normalization did not fill defaults: %+v", back.Tenants[1])
	}
}

// syncBuf is an io.Writer safe to read while the daemon goroutine writes.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon runs one securememd life in a goroutine and hands back its base
// URL once it is serving.
type daemon struct {
	out  *syncBuf
	sig  chan os.Signal
	code chan int
	base string
}

var listenRE = regexp.MustCompile(`serving \d+ tenants on (\S+)`)

func startDaemon(t *testing.T, args []string) *daemon {
	t.Helper()
	d := &daemon{out: &syncBuf{}, sig: make(chan os.Signal, 1), code: make(chan int, 1)}
	errb := &syncBuf{}
	go func() { d.code <- run(args, d.out, errb, d.sig) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(d.out.String()); m != nil {
			d.base = "http://" + m[1]
			return d
		}
		select {
		case code := <-d.code:
			t.Fatalf("daemon exited %d before serving\nstdout: %s\nstderr: %s", code, d.out.String(), errb.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not start serving\nstdout: %s\nstderr: %s", d.out.String(), errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop delivers SIGTERM and waits for the exit code.
func (d *daemon) stop(t *testing.T) int {
	t.Helper()
	d.sig <- syscall.SIGTERM
	select {
	case code := <-d.code:
		return code
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\nstdout: %s", d.out.String())
		return -1
	}
}

// TestDaemonServeCheckpointRestart is the daemon's end-to-end life cycle:
// serve writes over real HTTP, drain and checkpoint on SIGTERM, then a
// second life restores the checkpoint, crash-recovers every placement
// group, reports per-tenant recovery, and serves back the exact bytes.
func TestDaemonServeCheckpointRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "server.ckpt")
	args := []string{
		"-listen", "127.0.0.1:0",
		"-state", state,
		"-tenant", "name=alpha,scheme=Steins-SC,pool=8192,pgs=2,channels=2",
	}

	d := startDaemon(t, args)
	client := &http.Client{Timeout: 10 * time.Second}
	blockURL := func(addr uint64) string {
		return fmt.Sprintf("%s/v1/tenants/alpha/blocks/%d", d.base, addr)
	}
	want := map[uint64][]byte{}
	for i := 0; i < 32; i++ {
		addr := uint64(i*3%128) * 64
		body := bytes.Repeat([]byte{byte(i + 1)}, 64)
		req, _ := http.NewRequest(http.MethodPut, blockURL(addr), bytes.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %#x: status %d", addr, resp.StatusCode)
		}
		want[addr] = body
	}
	if resp, err := client.Get(d.base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	if code := d.stop(t); code != 0 {
		t.Fatalf("first life exited %d\nstdout: %s", code, d.out.String())
	}
	if !strings.Contains(d.out.String(), "checkpoint saved") {
		t.Fatalf("no checkpoint on SIGTERM:\n%s", d.out.String())
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	// Second life: must report recovery before serving, then serve the
	// first life's bytes.
	d2 := startDaemon(t, args)
	outStr := d2.out.String()
	if !strings.Contains(outStr, "securememd: recovery") ||
		!strings.Contains(outStr, `"tenant":"alpha"`) ||
		!strings.Contains(outStr, `"recovered":true`) {
		t.Fatalf("second life did not report recovery:\n%s", outStr)
	}
	for addr, body := range want {
		resp, err := client.Get(fmt.Sprintf("%s/v1/tenants/alpha/blocks/%d", d2.base, addr))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %#x after restart: status %d (%s)", addr, resp.StatusCode, got)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("GET %#x after restart: got %x…, want %x…", addr, got[:4], body[:4])
		}
	}
	// The recovery endpoint must agree with the startup report.
	resp, err := client.Get(d2.base + "/v1/tenants/alpha/recovery")
	if err != nil {
		t.Fatal(err)
	}
	var rec server.TenantRecovery
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rec.Recovered || rec.PGs != 2 || rec.NodesRecovered == 0 {
		t.Fatalf("recovery endpoint: %+v", rec)
	}
	if code := d2.stop(t); code != 0 {
		t.Fatalf("second life exited %d\nstdout: %s", code, d2.out.String())
	}
}

// TestDaemonRejectsMismatchedCheckpoint pins exit 1 when the checkpoint
// on disk does not match the configured pool shape.
func TestDaemonRejectsMismatchedCheckpoint(t *testing.T) {
	state := filepath.Join(t.TempDir(), "server.ckpt")
	d := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-state", state,
		"-tenant", "name=alpha,scheme=Steins-SC,pool=8192,pgs=2"})
	if code := d.stop(t); code != 0 {
		t.Fatalf("first life exited %d", code)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-listen", "127.0.0.1:0", "-state", state,
		"-tenant", "name=alpha,scheme=Steins-SC,pool=8192,pgs=4"}, &out, &errb, nil)
	if code != 1 {
		t.Fatalf("mismatched restore: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "PGs") && !strings.Contains(errb.String(), "restore") {
		t.Fatalf("stderr does not explain the mismatch: %s", errb.String())
	}
}

// tableOf builds a checkpoint table from its chunk indices and blocks.
func tableOf(t *testing.T, idx []uint64, blocks []byte) arena.Table {
	var chunks []byte
	for _, c := range idx {
		chunks = binary.LittleEndian.AppendUint64(chunks, c)
	}
	tb, err := arena.TableFrom(chunks, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestDaemonRejectsCraftedCheckpoint pins that a checkpoint whose CRC is
// valid but whose tables no encoder writes stops the daemon with exit 1
// and a diagnostic naming the table. Unchecked, an address past every int
// or a cached node without a payload panics the restore, a line address
// of 1<<40 on an 8 KiB pool grows a huge chunk directory, and repeated
// tag chunks, a tag past the data region or a written flag of 2 restore
// silently.
func TestDaemonRejectsCraftedCheckpoint(t *testing.T) {
	args := func(state string) []string {
		return []string{"-listen", "127.0.0.1:0", "-state", state,
			"-tenant", "name=alpha,scheme=Steins-SC,pool=8192,pgs=2"}
	}
	for _, tc := range []struct {
		name  string
		craft func(t *testing.T, cs *memctrl.ControllerState)
		want  string
	}{
		{"line past the device", func(t *testing.T, cs *memctrl.ControllerState) {
			cs.Device.Lines = tableOf(t, []uint64{1 << 40}, bytes.Repeat([]byte{1}, nvmem.LineBlockLen))
		}, "nvmem: line table: chunk 0 (index 1099511627776) lies past"},
		{"line past every int", func(t *testing.T, cs *memctrl.ControllerState) {
			cs.Device.Lines = tableOf(t, []uint64{1 << 62}, bytes.Repeat([]byte{1}, nvmem.LineBlockLen))
		}, "nvmem: line table: chunk 0 (index 4611686018427387904) lies past"},
		{"unaligned wear", func(t *testing.T, cs *memctrl.ControllerState) {
			cs.Device.Wear = tableOf(t, []uint64{0}, bytes.Repeat([]byte{1}, nvmem.WearBlockLen-8))
		}, "nvmem: wear table: 4088 bytes of blocks for 1 chunks"},
		{"descending tags", func(t *testing.T, cs *memctrl.ControllerState) {
			// The 64-line data region is one chunk: indices can repeat,
			// not descend, inside it.
			tag := make([]byte, arena.ChunkLen*17)
			tag[0] = 1
			cs.Tags = tableOf(t, []uint64{0, 0}, append(tag, tag...))
		}, "memctrl: tag table: chunk 1 (index 0) does not ascend"},
		{"tag past the data region", func(t *testing.T, cs *memctrl.ControllerState) {
			// Line 64 lies past the 64-line data region but inside the
			// device, which holds the metadata after the data.
			tag := make([]byte, arena.ChunkLen*17)
			tag[64*17] = 1
			cs.Tags = tableOf(t, []uint64{0}, tag)
		}, "memctrl: tag table: chunk 0 (index 0) holds slots past the 64 slots"},
		{"written byte of 2", func(t *testing.T, cs *memctrl.ControllerState) {
			tag := make([]byte, arena.ChunkLen*17)
			tag[16] = 2
			cs.Tags = tableOf(t, []uint64{0}, tag)
		}, "memctrl: tag table: line 0 (0x0) written flag is 2"},
		{"cached node without payload", func(t *testing.T, cs *memctrl.ControllerState) {
			cs.MetaCache.Entries = append(cs.MetaCache.Entries, cache.EntryState[*sit.Node]{})
		}, "has no payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := filepath.Join(t.TempDir(), "server.ckpt")
			d := startDaemon(t, args(state))
			if code := d.stop(t); code != 0 {
				t.Fatalf("first life exited %d", code)
			}
			st, err := snapshot.LoadFile[snapshot.ServerState](state)
			if err != nil {
				t.Fatal(err)
			}
			tc.craft(t, &st.Tenants[0].PGs[1].Channels[0])
			if err := snapshot.SaveFile(state, st); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			if code := run(args(state), &out, &errb, nil); code != 1 {
				t.Fatalf("crafted checkpoint: exit %d, want 1 (stderr: %s)", code, errb.String())
			}
			if msg := errb.String(); !strings.Contains(msg, "restore checkpoint") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr does not name the table (%q): %s", tc.want, msg)
			}
		})
	}
}
