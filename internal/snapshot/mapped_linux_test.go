//go:build linux

package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestLoadMappedResumeReleasedByCollector pins the fallback that unmaps a
// checkpoint nothing closes: a run resumed from a mapped file (a run has
// no Close) and a state loaded but never restored keep the file mapped
// while they are reachable, and the mapping goes once the collector finds
// them garbage.
func TestLoadMappedResumeReleasedByCollector(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	if err := SaveFile(path, runFixture(t)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		use  func(st *RunState) any // what keeps the mapping reachable
	}{
		{"resumed", func(st *RunState) any {
			r, err := st.Resume()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Sharded.DriveStreamN(r.Gen, 50); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"never restored", func(st *RunState) any { return st }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := LoadFile[RunState](path)
			if err != nil {
				t.Fatal(err)
			}
			live := tc.use(st)
			st = nil
			runtime.GC()
			if !mapsName(t, path) {
				t.Fatal("the checkpoint is not mapped while a state over it is reachable")
			}
			runtime.KeepAlive(live)
			live = nil
			for i := 0; i < 200 && mapsName(t, path); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if mapsName(t, path) {
				t.Fatal("the checkpoint is still mapped after everything over it became garbage")
			}
		})
	}
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
