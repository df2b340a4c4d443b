package nvmem

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"

	"steins/internal/arena"
)

// reindex returns tb's blocks under the chunk indices idx.
func reindex(tb arena.Table, idx ...uint64) arena.Table {
	var w []byte
	for _, c := range idx {
		w = binary.LittleEndian.AppendUint64(w, c)
	}
	return reblock(arena.Table{}, tb.Columns()[1], w)
}

// reblock returns the table of blocks b under tb's chunk indices, or
// under chunks if given.
func reblock(tb arena.Table, b []byte, chunks ...[]byte) arena.Table {
	idx := tb.Columns()[0]
	if len(chunks) > 0 {
		idx = chunks[0]
	}
	out, err := arena.TableFrom(idx, b)
	if err != nil {
		panic(err)
	}
	return out
}

// stateBytes gob-renders a device's state for before/after comparisons.
func stateBytes(t *testing.T, d *Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d.State()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// craftedDevice is a 1 MiB device holding four lines, three of them worn.
func craftedDevice(t *testing.T) *Device {
	t.Helper()
	d := New(smallConfig())
	for i, addr := range []uint64{64, 4096, 1<<20 - 64} {
		if _, err := d.Write(uint64(i)*1000, addr, Line{byte(i + 1)}, ClassData); err != nil {
			t.Fatal(err)
		}
	}
	d.Poke(128, Line{9})
	return d
}

// blocks returns n blocks of blockLen bytes, each starting with a 1.
func blocks(n, blockLen int) []byte {
	b := make([]byte, n*blockLen)
	for k := 0; k < n; k++ {
		b[k*blockLen] = 1
	}
	return b
}

// TestRestoreRejectsCraftedTables pins that a checkpoint's device tables
// are checked chunk by chunk before the device adopts them: a chunk index
// past the capacity (unchecked, index 1<<62 would panic in makeslice as
// the chunk directory grew to hold it), a block
// column that is not a whole number of blocks, chunk indices out of order
// or repeated, and chunks State never writes (all zero) are all refused
// with an error naming the table, without a large allocation and without
// touching the device. So are the small tables.
func TestRestoreRejectsCraftedTables(t *testing.T) {
	for _, tc := range []struct {
		name  string
		craft func(st *State)
		want  string
		is    error
	}{
		{"line past the capacity", func(st *State) {
			st.Lines = reindex(st.Lines, 0, 32)
		}, "nvmem: line table: chunk 1 (index 32) lies past", nil},
		{"line past every int", func(st *State) {
			st.Lines = reindex(st.Lines, 0, 1<<62)
		}, "nvmem: line table: chunk 1 (index 4611686018427387904) lies past", nil},
		{"line unaligned", func(st *State) {
			st.Lines = reblock(st.Lines, st.Lines.Columns()[1][LineSize:])
		}, "nvmem: line table: 65472 bytes of blocks for 2 chunks", nil},
		{"lines descending", func(st *State) {
			st.Lines = reindex(st.Lines, 31, 0)
		}, "nvmem: line table: chunk 1 (index 0) does not ascend", nil},
		{"line repeated", func(st *State) {
			st.Lines = reindex(st.Lines, 0, 0)
		}, "nvmem: line table: chunk 1 (index 0) does not ascend", nil},
		{"zero line", func(st *State) {
			st.Lines = reblock(st.Lines, append(make([]byte, LineBlockLen), st.Lines.Columns()[1][LineBlockLen:]...))
		}, "nvmem: line table: chunk 0 (index 0) is all zero", nil},
		{"wear unaligned", func(st *State) {
			st.Wear = reblock(st.Wear, blocks(3, WearBlockLen))
		}, "nvmem: wear table: 12288 bytes of blocks for 2 chunks", nil},
		{"wear past the capacity", func(st *State) {
			st.Wear = reindex(st.Wear, 0, 32)
		}, "nvmem: wear table: chunk 1 (index 32) lies past", nil},
		{"wear descending", func(st *State) {
			st.Wear = reindex(st.Wear, 31, 0)
		}, "nvmem: wear table: chunk 1 (index 0) does not ascend", nil},
		{"zero wear count", func(st *State) {
			st.Wear = reblock(st.Wear, make([]byte, 2*WearBlockLen))
		}, "nvmem: wear table: chunk 0 (index 0) is all zero", nil},
		{"stuck overlay past the capacity", func(st *State) {
			st.Stuck = []StuckState{{Addr: 1 << 40, Mask: Line{1}}}
		}, "nvmem: stuck address 0", ErrOutOfRange},
		{"empty stuck overlay", func(st *State) {
			st.Stuck = []StuckState{{Addr: 64}}
		}, "empty mask", nil},
		{"evidence out of order", func(st *State) {
			st.Evidence = []EvidenceState{{Addr: 128, Corrected: 1}, {Addr: 64, Corrected: 1}}
		}, "nvmem: evidence address 1", nil},
		{"empty evidence entry", func(st *State) {
			st.Evidence = []EvidenceState{{Addr: 64}}
		}, "is empty", nil},
		{"bank clocks of another device", func(st *State) {
			st.Banks = append(st.Banks, 0)
		}, "bank clocks", nil},
		{"fault stream with the model off", func(st *State) {
			st.FaultRNG[0] = 1
		}, "fault model off", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := craftedDevice(t).State()
			if st.Lines.Len() != 2 || st.Wear.Len() != 2 {
				t.Fatalf("crafted device has %d line and %d wear chunks, want 2 each", st.Lines.Len(), st.Wear.Len())
			}
			tc.craft(&st)
			d := New(smallConfig())
			d.Poke(192, Line{7})
			before := stateBytes(t, d)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc := ms.TotalAlloc
			err := d.Restore(st)
			runtime.ReadMemStats(&ms)
			if err == nil || !strings.Contains(err.Error(), tc.want) || tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("Restore = %v, want an error naming %q (is %v)", err, tc.want, tc.is)
			}
			if grew := ms.TotalAlloc - alloc; grew > 1<<20 {
				t.Fatalf("refused restore allocated %d bytes", grew)
			}
			if !bytes.Equal(stateBytes(t, d), before) {
				t.Fatal("refused restore changed the device")
			}
		})
	}
}

// TestRestoreAdoptsColumns pins the adoption contract: Restore takes the
// state's line and wear blocks as the device's chunks without copying
// them, so a second Restore of the state, or of a copy of it, is refused
// and leaves its device as it was; State never aliases the device, so a
// state taken after writes is independent of the device it came from;
// and neither Adopt nor a restore refused because one of its tables was
// adopted already claims a table or changes the device.
func TestRestoreAdoptsColumns(t *testing.T) {
	src := craftedDevice(t)
	want := stateBytes(t, src)
	st := src.State()
	cp := st
	d := New(smallConfig())
	if err := d.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, d), want) {
		t.Fatal("restored device differs from its source")
	}
	if !st.Lines.Adopted() || !cp.Wear.Adopted() {
		t.Fatal("restored state's blocks are not marked adopted")
	}
	if &d.lines.Probe(64 / LineSize)[0] != &st.Lines.Columns()[1][64] {
		t.Fatal("Restore copied the line blocks instead of adopting them")
	}
	other := New(smallConfig())
	other.Poke(192, Line{7})
	before := stateBytes(t, other)
	for _, again := range []State{st, cp} {
		if err := other.Restore(again); err == nil || !strings.Contains(err.Error(), "already adopted") {
			t.Fatalf("second Restore of an adopted state = %v, want a refusal", err)
		}
	}
	if !bytes.Equal(stateBytes(t, other), before) {
		t.Fatal("refused second restore changed the device")
	}

	// A state taken after writes owns its tables: the device's later
	// writes do not show in it, and a device restored from it shares
	// nothing with the source.
	if _, err := d.Write(5000, 4096, Line{0xEE}, ClassData); err != nil {
		t.Fatal(err)
	}
	after := d.State()
	if _, err := d.Write(6000, 4096, Line{0xDD}, ClassData); err != nil {
		t.Fatal(err)
	}
	fresh := New(smallConfig())
	if err := fresh.Restore(after); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Peek(4096); got != (Line{0xEE}) {
		t.Fatalf("state taken before a write restores line %x, want ee", got[:1])
	}
	fresh.Poke(4096, Line{0xCC})
	if got := d.Peek(4096); got != (Line{0xDD}) {
		t.Fatalf("source device line %x after writes elsewhere, want dd", got[:1])
	}
	// Adopt claims nothing and leaves the device as it was until install
	// runs; a restore refused because one of its tables was claimed
	// already claims the other one neither.
	unclaimed := d.State()
	fresh2 := New(smallConfig())
	before = stateBytes(t, fresh2)
	if _, err := fresh2.Adopt(unclaimed); err != nil {
		t.Fatal(err)
	}
	unclaimed.Wear = st.Wear
	if err := fresh2.Restore(unclaimed); !errors.Is(err, arena.ErrAdopted) {
		t.Fatalf("Restore with an adopted wear table = %v, want ErrAdopted", err)
	}
	if unclaimed.Lines.Adopted() || !bytes.Equal(stateBytes(t, fresh2), before) {
		t.Fatal("Adopt or a refused restore claimed the state's tables or changed the device")
	}
}
