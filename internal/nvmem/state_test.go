package nvmem

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// words builds a column from its values.
func words(vs ...uint64) Words {
	var w Words
	for _, v := range vs {
		w.Append(v)
	}
	return w
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

// TestRestoreRejectsCraftedTables pins that a checkpoint's device tables
// are checked entry by entry before anything lands in an arena: an address
// past the capacity (unchecked, 1<<40 grows a chunk directory of 2^25
// entries on this 1 MiB device and 1<<62 panics in makeslice), an
// unaligned one (unchecked, it lands on the line below), columns out of
// order or repeated, and entries State never writes are all refused with
// an error naming the table, without a large allocation and without
// touching the device.
func TestRestoreRejectsCraftedTables(t *testing.T) {
	for _, tc := range []struct {
		name  string
		craft func(st *State)
		want  string
		is    error
	}{
		{"line past the capacity", func(st *State) {
			st.LineAddrs = words(64, 128, 4096, 1<<40)
		}, "nvmem: line address 3", ErrOutOfRange},
		{"line past every int", func(st *State) {
			st.LineAddrs = words(64, 128, 4096, 1<<62)
		}, "nvmem: line address 3", ErrOutOfRange},
		{"line unaligned", func(st *State) {
			st.LineAddrs = words(64, 128, 4097, 8192)
		}, "nvmem: line address 2", ErrUnaligned},
		{"lines descending", func(st *State) {
			st.LineAddrs = words(64, 4096, 128, 1<<20-64)
		}, "does not ascend", nil},
		{"line repeated", func(st *State) {
			st.LineAddrs = words(64, 128, 128, 1<<20-64)
		}, "does not ascend", nil},
		{"zero line", func(st *State) {
			st.LineData = append(make([]byte, LineSize), st.LineData[LineSize:]...)
		}, "all zero", nil},
		{"wear unaligned", func(st *State) {
			st.WearAddrs = words(3, 4096, 1<<20-64)
		}, "nvmem: wear address 0", ErrUnaligned},
		{"wear past the capacity", func(st *State) {
			st.WearAddrs = words(64, 4096, 1<<20)
		}, "nvmem: wear address 2", ErrOutOfRange},
		{"wear descending", func(st *State) {
			st.WearAddrs = words(64, 1<<20-64, 4096)
		}, "does not ascend", nil},
		{"zero wear count", func(st *State) {
			st.WearCounts = words(1, 0, 1)
		}, "wear count 1", nil},
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

// TestRestoreCopiesOutOfColumns pins that Restore reads the columns in
// place but copies every entry: overwriting the bytes a state was built
// from afterwards leaves the restored device as it was.
func TestRestoreCopiesOutOfColumns(t *testing.T) {
	src := craftedDevice(t)
	want := stateBytes(t, src)
	st := src.State()
	cols := st.Columns()
	for i := range cols {
		cols[i] = append([]byte(nil), cols[i]...)
	}
	if err := st.SetColumns(cols); err != nil {
		t.Fatal(err)
	}
	d := New(smallConfig())
	if err := d.Restore(st); err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		for i := range col {
			col[i] = 0xAA
		}
	}
	if !bytes.Equal(stateBytes(t, d), want) {
		t.Fatal("restored device aliases the state's columns")
	}
	if err := st.SetColumns([StateColumns][]byte{make([]byte, 12)}); err == nil {
		t.Fatal("SetColumns accepted a 12-byte word column")
	}
}
