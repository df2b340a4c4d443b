package schemetest_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/scheme/asit"
	"steins/internal/scheme/pipesit"
	"steins/internal/scheme/schemetest"
	"steins/internal/scheme/scue"
	"steins/internal/scheme/star"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/triad"
	"steins/internal/sit"
)

// stateScheme is one stateful scheme under the restore tests.
type stateScheme struct {
	name    string
	factory memctrl.PolicyFactory
	split   bool
}

var stateSchemes = []stateScheme{
	{"ASIT", asit.Factory, false},
	{"STAR", star.Factory, false},
	{"Steins-SC", steins.Factory, true},
	{"SCUE-SC", scue.Factory, true},
	{"PipeSIT-SC", pipesit.Factory, true},
	{"Triad-SC", triad.Factory, true},
}

// capturedState drives a scheme through the churn workload and captures
// its controller state.
func capturedState(t *testing.T, s stateScheme) *memctrl.ControllerState {
	t.Helper()
	c := memctrl.New(schemetest.Config(s.split), s.factory)
	schemetest.Workload(t, c, 2000, 7)
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// node is a crafted node-keyed entry.
func node(level int, index, counter uint64) memctrl.NodeCounter {
	return memctrl.NodeCounter{NodeRef: memctrl.NodeRef{Level: level, Index: index}, Counter: counter}
}

// TestRestoreRoundTripsSchemeState pins that every stateful scheme's blob
// restores into a fresh controller and saves back byte for byte, and that
// one byte after the state is refused.
func TestRestoreRoundTripsSchemeState(t *testing.T) {
	for _, s := range stateSchemes {
		t.Run(s.name, func(t *testing.T) {
			st := capturedState(t, s)
			c := memctrl.New(schemetest.Config(s.split), s.factory)
			if err := c.Restore(st); err != nil {
				t.Fatal(err)
			}
			back, err := c.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Policy, st.Policy) {
				t.Fatal("restored scheme state saves to other bytes")
			}
			// The device adopted st's blocks; a second restore needs a
			// state of its own.
			st = capturedState(t, s)
			st.Policy = append(st.Policy, 0)
			err = memctrl.New(schemetest.Config(s.split), s.factory).Restore(st)
			if err == nil || !strings.Contains(err.Error(), "1 bytes after the state") {
				t.Fatalf("Restore with a trailing byte = %v, want a refusal naming it", err)
			}
		})
	}
}

// TestRestoreRejectsCraftedSchemeState pins that a scheme blob whose
// entries the tree could not hold is refused by Restore, naming the entry,
// instead of panicking when the entry is first used.
func TestRestoreRejectsCraftedSchemeState(t *testing.T) {
	byName := map[string]stateScheme{}
	for _, s := range stateSchemes {
		byName[s.name] = s
	}
	for _, tc := range []struct {
		scheme, name string
		edit         func(t *testing.T, geo *sit.Geometry, blob []byte) []byte
		why          func(geo *sit.Geometry) string
	}{
		{"Steins-SC", "buffer entry past the tree", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *steins.State) { st.Buf = append([]memctrl.NodeCounter{node(42, 0, 1)}, st.Buf...) })
		}, func(geo *sit.Geometry) string {
			return fmt.Sprintf("NV buffer entry 0 (level 42 index 0): level outside [0, %d)", geo.Levels-1)
		}},
		{"Steins-SC", "buffer entry at the top level", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *steins.State) { st.Buf = append([]memctrl.NodeCounter{node(geo.Levels-1, 0, 1)}, st.Buf...) })
		}, func(geo *sit.Geometry) string {
			return fmt.Sprintf("NV buffer entry 0 (level %d index 0): level outside [0, %d)", geo.Levels-1, geo.Levels-1)
		}},
		{"Steins-SC", "buffer entry past its level", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *steins.State) {
				st.Buf = append([]memctrl.NodeCounter{node(0, geo.LevelNodes[0], 1)}, st.Buf...)
			})
		}, func(geo *sit.Geometry) string {
			return fmt.Sprintf("NV buffer entry 0 (level 0 index %d): index past the level's %[1]d nodes", geo.LevelNodes[0])
		}},
		{"Steins-SC", "record line past its region", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *steins.State) { st.Records.Entries[0].Addr += 1 << 40 })
		}, func(*sit.Geometry) string { return "record line 0 at 0x1" }},
		{"Steins-SC", "record line without a payload", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *steins.State) { st.Records.Entries[0].Payload = nil })
		}, func(*sit.Geometry) string { return "has no payload" }},
		{"Steins-SC", "LInc levels", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *steins.State) { st.LInc = append(st.LInc, 0) })
		}, func(geo *sit.Geometry) string {
			return fmt.Sprintf("state has %d LInc levels, scheme has %d", geo.Levels+1, geo.Levels)
		}},
		{"PipeSIT-SC", "pipe entry past the tree", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *pipesit.State) { st.Pipe = append([]memctrl.NodeCounter{node(99, 0, 1)}, st.Pipe...) })
		}, func(geo *sit.Geometry) string {
			return fmt.Sprintf("update pipe entry 0 (level 99 index 0): level outside [0, %d)", geo.Levels-1)
		}},
		{"Triad-SC", "pend entry past the tree", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *triad.State) { st.Pend = append([]memctrl.NodeCounter{node(geo.Levels, 0, 1)}, st.Pend...) })
		}, func(geo *sit.Geometry) string {
			return fmt.Sprintf("pend table entry 0 (level %d index 0): level outside", geo.Levels)
		}},
		{"Triad-SC", "pend entry past its level", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *triad.State) {
				st.Pend = append([]memctrl.NodeCounter{node(0, geo.LevelNodes[0], 1)}, st.Pend...)
			})
		}, func(geo *sit.Geometry) string { return "index past the level's" }},
		{"Triad-SC", "pend entry listed twice", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *triad.State) { st.Pend = append(st.Pend, st.Pend[0]) })
		}, func(*sit.Geometry) string { return "node listed twice" }},
		{"STAR", "LSBs wider than 16 bits", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *star.State) { st.LSBs[0].Counter = 1 << 16 })
		}, func(*sit.Geometry) string {
			return "LSB table entry 0 (level 0 index 0): counter 0x10000 wider than uint16"
		}},
		{"STAR", "LSB entry listed twice", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *star.State) { st.LSBs = append(st.LSBs, st.LSBs[0]) })
		}, func(*sit.Geometry) string { return "node listed twice" }},
		{"STAR", "LSB entry past the tree", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *star.State) { st.LSBs = append([]memctrl.NodeCounter{node(geo.Levels, 0, 1)}, st.LSBs...) })
		}, func(geo *sit.Geometry) string { return fmt.Sprintf("level outside [0, %d)", geo.Levels) }},
		{"STAR", "bitmap line past its region", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *star.State) { st.Bitmap.Entries[0].Addr += 1 << 40 })
		}, func(*sit.Geometry) string { return "bitmap line 0 at 0x1" }},
		{"STAR", "set-MACs", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *star.State) { st.SetMACs = st.SetMACs[1:] })
		}, func(*sit.Geometry) string { return "set-MACs" }},
		{"STAR", "set-MAC tree level width", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *star.State) { st.Tree[0] = st.Tree[0][1:] })
		}, func(*sit.Geometry) string { return "state tree level 0" }},
		{"ASIT", "cache-tree shape", func(t *testing.T, geo *sit.Geometry, b []byte) []byte {
			return schemetest.EditState(t, b, func(st *asit.State) { st.Tree[0] = st.Tree[0][1:] })
		}, func(*sit.Geometry) string { return "state tree level 0" }},
	} {
		t.Run(tc.scheme+"/"+tc.name, func(t *testing.T) {
			s := byName[tc.scheme]
			st := capturedState(t, s)
			c := memctrl.New(schemetest.Config(s.split), s.factory)
			geo := &c.Layout().Geo
			st.Policy = tc.edit(t, geo, st.Policy)
			err := c.Restore(st)
			want, why := "memctrl: scheme "+tc.scheme+" state: ", tc.why(geo)
			if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), why) {
				t.Fatalf("Restore = %v, want %q ... %q", err, want, why)
			}
		})
	}
}

// TestRestoreAfterFailedParentUpdates pins that a checkpoint of a run whose
// parent-counter updates keep failing restores. Every level-1 node image
// is bit-flipped, so each drain of the Steins buffer and each retirement
// of the PipeSIT pipe fails its parent fetch and keeps its entry: the
// buffer and the pipe grow past their 8 slots, and the checkpoint must
// still restore and save back byte for byte.
func TestRestoreAfterFailedParentUpdates(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory memctrl.PolicyFactory
		entries func(t *testing.T, blob []byte) int
	}{
		{"Steins-SC", steins.Factory, func(t *testing.T, blob []byte) int {
			var st steins.State
			if err := memctrl.DecodePolicyState(blob, &st); err != nil {
				t.Fatal(err)
			}
			return len(st.Buf)
		}},
		{"PipeSIT-SC", pipesit.Factory, func(t *testing.T, blob []byte) int {
			var st pipesit.State
			if err := memctrl.DecodePolicyState(blob, &st); err != nil {
				t.Fatal(err)
			}
			return len(st.Pipe)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := memctrl.New(schemetest.Config(true), tc.factory)
			schemetest.Workload(t, c, 2000, 7)
			geo := &c.Layout().Geo
			for i := range geo.LevelNodes[1] {
				addr := geo.NodeAddr(1, i)
				line := c.Device().Peek(addr)
				line[0] ^= 1
				c.Device().Poke(addr, line)
			}
			lines := c.Config().DataBytes / 64
			failed := 0
			for i := range uint64(4000) {
				addr := i * 97 % lines * 64
				if err := c.WriteData(5, addr, schemetest.Pattern(addr, byte(i))); err != nil {
					failed++
				}
			}
			st, err := c.State()
			if err != nil {
				t.Fatal(err)
			}
			if n := tc.entries(t, st.Policy); failed == 0 || n <= 8 {
				t.Fatalf("%d failed writes, %d entries: parent updates did not fail; test is vacuous", failed, n)
			}
			r := memctrl.New(schemetest.Config(true), tc.factory)
			if err := r.Restore(st); err != nil {
				t.Fatalf("Restore of a checkpoint the scheme wrote: %v", err)
			}
			back, err := r.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Policy, st.Policy) {
				t.Fatal("restored scheme state saves to other bytes")
			}
		})
	}
}
