package memctrl_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"steins/internal/arena"
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
	if st.Tags.Len() < 3 || len(st.MetaCache.Entries) < 2 {
		t.Fatalf("fixture left %d tag chunks, %d cached nodes", st.Tags.Len(), len(st.MetaCache.Entries))
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

// setChunk returns tb with chunk index i replaced by v.
func setChunk(tb arena.Table, i int, v uint64) arena.Table {
	idx := append([]byte(nil), tb.Columns()[0]...)
	binary.LittleEndian.PutUint64(idx[8*i:], v)
	return tableOf(idx, tb.Columns()[1])
}

// setBlocks returns tb's chunk indices over the blocks b.
func setBlocks(tb arena.Table, b []byte) arena.Table { return tableOf(tb.Columns()[0], b) }

// tableOf is arena.TableFrom for columns known to be well formed.
func tableOf(chunks, blocks []byte) arena.Table {
	tb, err := arena.TableFrom(chunks, blocks)
	if err != nil {
		panic(err)
	}
	return tb
}

// TestRestoreRejectsCraftedControllerState pins that a controller state
// whose tables or lists State could not have written is refused with an
// error naming the table, before the controller is touched and before any
// of the state's tables is claimed: the tag table's chunks are held to the
// data region (not the device, which also holds the metadata), whole
// blocks, ascending order, 0/1 written flags and non-zero chunks, and the
// quarantine, escalation, cache and collector images to what a controller
// of this configuration holds. Unchecked, a cached node without a payload
// panics in Clone and a slot outside the cache panics in SetState.
func TestRestoreRejectsCraftedControllerState(t *testing.T) {
	cfg := testConfig(true)
	for _, tc := range []struct {
		name  string
		craft func(st *memctrl.ControllerState)
		want  string
	}{
		{"older layout", func(st *memctrl.ControllerState) { st.Layout = 3 }, "layout 3, want 6"},
		{"tag past the data region", func(st *memctrl.ControllerState) {
			// Inside the device, whose metadata region follows the data.
			st.Tags = setChunk(st.Tags, st.Tags.Len()-1, cfg.DataBytes/nvmem.LineSize/arena.ChunkLen)
		}, "memctrl: tag table: chunk 2 (index 32) lies past the 16384 slots"},
		{"tag past every int", func(st *memctrl.ControllerState) {
			st.Tags = setChunk(st.Tags, st.Tags.Len()-1, 1<<62)
		}, "memctrl: tag table: chunk 2 (index 4611686018427387904) lies past"},
		{"tag unaligned", func(st *memctrl.ControllerState) {
			b := st.Tags.Columns()[1]
			st.Tags = setBlocks(st.Tags, b[:len(b)-1])
		}, "memctrl: tag table: 26111 bytes of blocks for 3 chunks"},
		{"tags descending", func(st *memctrl.ControllerState) {
			st.Tags = setChunk(st.Tags, 0, st.Tags.Chunk(1)+1)
		}, "memctrl: tag table: chunk 1 (index 1) does not ascend"},
		{"written flag of 2", func(st *memctrl.ControllerState) {
			b := append([]byte(nil), st.Tags.Columns()[1]...)
			b[16] = 2
			st.Tags = setBlocks(st.Tags, b)
		}, "written flag is 2"},
		{"zero tag", func(st *memctrl.ControllerState) {
			b := append([]byte(nil), st.Tags.Columns()[1]...)
			clear(b[:arena.ChunkLen*17])
			st.Tags = setBlocks(st.Tags, b)
		}, "memctrl: tag table: chunk 0 (index 0) is all zero"},
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
			st.Device.Lines = setChunk(st.Device.Lines, st.Device.Lines.Len()-1, 1<<40)
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
			for j, tb := range st.Tables() {
				if tb.Adopted() {
					t.Fatalf("refused restore claimed table %d", j)
				}
			}
		})
	}
	// A second restore of a tag table keeps its sentinel.
	st := restoreFixture(t)
	if err := memctrl.New(cfg, steins.Factory).Restore(st); err != nil {
		t.Fatal(err)
	}
	again := restoreFixture(t)
	again.Tags = st.Tags
	if err := memctrl.New(cfg, steins.Factory).Restore(again); !errors.Is(err, arena.ErrAdopted) {
		t.Fatalf("restore of an adopted tag table: %v, want arena.ErrAdopted", err)
	}
	if again.Device.Lines.Adopted() || again.Device.Wear.Adopted() {
		t.Fatal("restore refused for its adopted tag table claimed the device's tables")
	}
}

// TestRestoreColumnsRoundTrip pins the tables' columns: a state rebuilt
// from copies of its columns (arena.Table.Columns, TableFrom) restores to a
// controller whose state renders to the same bytes. The controller reads
// the chunk-index columns and keeps nothing of them, so overwriting those
// copies afterwards changes nothing; the device's line and wear blocks and
// the tag blocks it adopts, so a write after the restore lands in the
// state's tag blocks, and a second restore of the state is refused.
func TestRestoreColumnsRoundTrip(t *testing.T) {
	st := restoreFixture(t)
	src := memctrl.New(testConfig(true), steins.Factory)
	if err := src.Restore(st); err != nil {
		t.Fatal(err)
	}
	want := controllerBytes(t, src)
	var idx [][]byte
	for _, tb := range st.Tables() {
		cols := tb.Columns()
		idx = append(idx, append([]byte(nil), cols[0]...))
		*tb = tableOf(idx[len(idx)-1], append([]byte(nil), cols[1]...))
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
	// Slot 0 of the first tag chunk is the first 17 bytes of the blocks.
	addr := st.Tags.Chunk(0) * arena.ChunkLen * nvmem.LineSize
	for _, col := range idx {
		for i := range col {
			col[i] = 0x55
		}
	}
	if !bytes.Equal(controllerBytes(t, c), want) {
		t.Fatal("restored controller aliases a chunk-index column")
	}
	if err := c.WriteData(1, addr, pattern(addr, 0xA5)); err != nil {
		t.Fatal(err)
	}
	tag, slot := c.Tag(addr), st.Tags.Columns()[1][:17]
	if binary.LittleEndian.Uint64(slot) != tag.MAC || binary.LittleEndian.Uint64(slot[8:]) != tag.Hint || slot[16] != 1 {
		t.Fatalf("tag %+v written after the restore is not in the state's tag blocks (% x)", tag, slot)
	}
}
