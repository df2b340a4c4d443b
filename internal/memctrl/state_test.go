package memctrl_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/scheme/steins"
)

// restoreFixture drives a small Steins-SC controller far enough that its
// tag table and metadata cache are populated, and returns its state.
func restoreFixture(t *testing.T) *memctrl.ControllerState {
	t.Helper()
	c := memctrl.New(testConfig(true), steins.Factory)
	for i := uint64(0); i < 200; i++ {
		if err := c.WriteData(i, (i*7%4096)*64, pattern(i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.TagAddrs.Len() < 3 || len(st.MetaCache.Entries) < 2 {
		t.Fatalf("fixture left %d tags, %d cached nodes", st.TagAddrs.Len(), len(st.MetaCache.Entries))
	}
	return st
}

// controllerBytes gob-renders a controller's state.
func controllerBytes(t *testing.T, c *memctrl.Controller) []byte {
	t.Helper()
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setWord returns w with word i replaced by v.
func setWord(w nvmem.Words, i int, v uint64) nvmem.Words {
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

// TestRestoreRejectsCraftedControllerState pins that a controller state
// whose tables or lists State could not have written is refused with an
// error naming the table, before the controller is touched: the tag table
// is held to the data region, alignment, ascending order, 0/1 written
// flags and non-zero tags, and the quarantine, escalation, cache and
// collector images to what a controller of this configuration holds.
// Unchecked, a cached node without a payload panics in Clone and a slot
// outside the cache panics in SetState.
func TestRestoreRejectsCraftedControllerState(t *testing.T) {
	cfg := testConfig(true)
	for _, tc := range []struct {
		name  string
		craft func(st *memctrl.ControllerState)
		want  string
	}{
		{"older layout", func(st *memctrl.ControllerState) { st.Layout = 3 }, "layout 3, want 5"},
		{"tag past the data region", func(st *memctrl.ControllerState) {
			st.TagAddrs = setWord(st.TagAddrs, st.TagAddrs.Len()-1, cfg.DataBytes)
		}, "memctrl: tag address"},
		{"tag past every int", func(st *memctrl.ControllerState) {
			st.TagAddrs = setWord(st.TagAddrs, st.TagAddrs.Len()-1, 1<<62)
		}, "memctrl: tag address"},
		{"tag unaligned", func(st *memctrl.ControllerState) {
			st.TagAddrs = setWord(st.TagAddrs, 0, st.TagAddrs.At(0)+1)
		}, "memctrl: tag address 0"},
		{"tags descending", func(st *memctrl.ControllerState) {
			st.TagAddrs = setWord(st.TagAddrs, 0, st.TagAddrs.At(1)+64)
		}, "does not ascend"},
		{"written flag of 2", func(st *memctrl.ControllerState) {
			st.TagFlags = append([]byte{2}, st.TagFlags[1:]...)
		}, "written flag is 2"},
		{"zero tag", func(st *memctrl.ControllerState) {
			st.TagMACs = setWord(st.TagMACs, 0, 0)
			st.TagHints = setWord(st.TagHints, 0, 0)
			st.TagFlags = append([]byte{0}, st.TagFlags[1:]...)
		}, "is zero"},
		{"quarantined leaf past the leaves", func(st *memctrl.ControllerState) {
			st.Quarantined = []uint64{1 << 40}
		}, "quarantined leaf"},
		{"quarantine record of a healthy leaf", func(st *memctrl.ControllerState) {
			st.QuarInfo = []memctrl.QuarantineState{{Leaf: 1}}
		}, "quarantine record"},
		{"escalation log out of order", func(st *memctrl.ControllerState) {
			st.Escalated = []memctrl.EscalationState{{Addr: 128, Count: 1}, {Addr: 64, Count: 1}}
		}, "escalation entry 1"},
		{"cached node without payload", func(st *memctrl.ControllerState) {
			st.MetaCache.Entries[0].Payload = nil
		}, "has no payload"},
		{"cached node at another address", func(st *memctrl.ControllerState) {
			n := st.MetaCache.Entries[0].Payload.Clone()
			n.Index++
			st.MetaCache.Entries[0].Payload = n
		}, "not the node stored there"},
		{"cache slot outside the cache", func(st *memctrl.ControllerState) {
			st.MetaCache.Entries[len(st.MetaCache.Entries)-1].Slot = 1 << 30
		}, "cache: entry"},
		{"collector state without a collector", func(st *memctrl.ControllerState) {
			st.Collector.Retired = 1
		}, "collector"},
		{"collector ring past its capacity", func(st *memctrl.ControllerState) {
			st.HasCollector = true
			st.Collector = metrics.CollectorState{Opt: metrics.Options{SampleEvery: 1, RingCap: 1},
				Ring: make([]metrics.Sample, 2)}
		}, "collector ring"},
		{"device line past the capacity", func(st *memctrl.ControllerState) {
			st.Device.LineChunks = setWord(st.Device.LineChunks, st.Device.LineChunks.Len()-1, 1<<40)
		}, "nvmem: line table"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := restoreFixture(t)
			tc.craft(st)
			c := memctrl.New(cfg, steins.Factory)
			if err := c.WriteData(0, 64, pattern(64, 1)); err != nil {
				t.Fatal(err)
			}
			before := controllerBytes(t, c)
			err := c.Restore(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error naming %q", err, tc.want)
			}
			if !bytes.Equal(controllerBytes(t, c), before) {
				t.Fatal("refused restore changed the controller")
			}
		})
	}
	// The address errors keep the device's typed sentinels.
	st := restoreFixture(t)
	st.TagAddrs = setWord(st.TagAddrs, 0, st.TagAddrs.At(0)+8)
	if err := memctrl.New(cfg, steins.Factory).Restore(st); !errors.Is(err, nvmem.ErrUnaligned) {
		t.Fatalf("unaligned tag: %v, want ErrUnaligned", err)
	}
}

// TestRestoreColumnsRoundTrip pins Columns/SetColumns: a state rebuilt
// from copies of its columns restores to a controller whose state renders
// to the same bytes. The controller copies the tag and chunk-index columns
// out, so overwriting those copies afterwards changes nothing; the
// device's line and wear blocks it adopts.
func TestRestoreColumnsRoundTrip(t *testing.T) {
	st := restoreFixture(t)
	src := memctrl.New(testConfig(true), steins.Factory)
	if err := src.Restore(st); err != nil {
		t.Fatal(err)
	}
	want := controllerBytes(t, src)
	cols := st.Columns()
	for i := range cols {
		cols[i] = append([]byte(nil), cols[i]...)
	}
	if err := st.SetColumns(cols); err != nil {
		t.Fatal(err)
	}
	c := memctrl.New(testConfig(true), steins.Factory)
	if err := c.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(controllerBytes(t, c), want) {
		t.Fatal("restore from column copies differs")
	}
	if err := memctrl.New(testConfig(true), steins.Factory).Restore(st); err == nil || !strings.Contains(err.Error(), "already adopted") {
		t.Fatalf("second Restore of one state = %v, want a refusal", err)
	}
	for j, col := range cols {
		if j == 1 || j == 3 {
			continue // the device's line and wear blocks, which it adopted
		}
		for i := range col {
			col[i] = 0x55
		}
	}
	if !bytes.Equal(controllerBytes(t, c), want) {
		t.Fatal("restored controller aliases a column it should have copied")
	}
}
