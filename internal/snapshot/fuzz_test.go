package snapshot

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"
)

// fuzzSchemes indexes the canonical schemes for the fuzzer.
var fuzzSchemes = []string{
	"WB-GC", "WB-SC", "ASIT", "STAR", "Steins-GC", "Steins-SC", "SCUE-GC", "SCUE-SC",
	"PipeSIT-GC", "PipeSIT-SC", "Triad-GC", "Triad-SC",
}

// FuzzSnapshotRoundTrip drives a random trace prefix, saves, loads, and
// drives the remainder, comparing against the uninterrupted stream-order
// oracle: the resumed run must be bit-identical in result fields and
// metrics JSON for any (seed, boundary, scheme) triple.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(42), uint64(37), uint64(4))
	f.Add(uint64(7), uint64(199), uint64(5))
	f.Add(uint64(999), uint64(450), uint64(3))
	f.Add(uint64(3), uint64(1<<63), uint64(7))
	// Early op boundaries, once per scheme family of the relaxed-
	// persistence sweep plus the Steins buffered path: the capture lands
	// while the schemes' pipes, pending sets and buffers are partly full,
	// and straight and resumed runs must still be bit-identical.
	f.Add(uint64(77), uint64(8), uint64(8))    // PipeSIT-GC
	f.Add(uint64(78), uint64(8), uint64(11))   // Triad-SC
	f.Add(uint64(79), uint64(8), uint64(4))    // Steins-GC
	f.Add(uint64(80), uint64(8), uint64(9))    // PipeSIT-SC, fault model on (9%3==0)
	f.Add(uint64(81), uint64(416), uint64(10)) // Triad-GC, late boundary
	f.Fuzz(func(t *testing.T, seed, boundRaw, schemeRaw uint64) {
		const ops = 400
		h := testHeader(fuzzSchemes[schemeRaw%uint64(len(fuzzSchemes))], 1, ops)
		h.Seed = seed
		if schemeRaw%3 == 0 {
			// Every third scheme draw also runs the media-fault model, so
			// the fault RNG stream crosses the snapshot boundary.
			h.Faults = faultHeader(h.Scheme, 1, ops).Faults
		}
		total := h.WarmupOps + h.TotalOps
		bound := int(boundRaw % uint64(total+1))

		want, wantJSON := straightSingle(t, h)
		got, gotJSON := checkpointSingle(t, h, bound)
		want.Snapshot, got.Snapshot = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d bound %d %s: results diverge\nstraight %+v\nresumed  %+v",
				seed, bound, h.Scheme, want, got)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("seed %d bound %d %s: metrics JSON diverges", seed, bound, h.Scheme)
		}
	})
}

// FuzzReadEnvelope throws arbitrary bytes at the run loaders: they must
// reject or accept without ever panicking, and anything they accept must
// resume or fail with a structured error. ReadEnvelope must read the same
// payload bytes, or fail with the same error text, over both kinds of
// reader (one that reports its length, one that does not), and Decode on
// the bytes and LoadFile on a file of them must agree (loadBoth).
func FuzzReadEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("STEINSNP"))
	f.Add(bytes.Repeat([]byte{0xFF}, headerLen+32))
	// Seed one valid snapshot so the mutator starts from decodable bytes.
	wire := func(st *RunState) []byte {
		b, err := Encode(st)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	st := capture(f, testHeader("Steins-GC", 1, 100), 25)
	valid := wire(st)
	// A CRC-valid run whose data region is below the workload's footprint:
	// Resume must refuse the header before it builds the engine.
	st.Header.DataBytes = 64
	f.Add(wire(st))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                // truncated payload
	f.Add(append(slices.Clip(valid), 0xAA))    // trailing byte
	f.Add(append(slices.Clone(valid[:40]), 1)) // declared length past the end
	crcBad := slices.Clone(valid)
	crcBad[headerLen+3] ^= 1
	f.Add(crcBad)
	kindBad := slices.Clone(valid)
	kindBad[12] = byte(KindServer)
	f.Add(kindBad)
	f.Fuzz(func(t *testing.T, data []byte) {
		fromLen, lenErr := ReadEnvelope(bytes.NewReader(data), KindRun)
		fromPlain, plainErr := ReadEnvelope(struct{ io.Reader }{bytes.NewReader(data)}, KindRun)
		if (lenErr == nil) != (plainErr == nil) || lenErr != nil && lenErr.Error() != plainErr.Error() ||
			!bytes.Equal(fromLen, fromPlain) {
			t.Fatalf("length-reporting reader (%d bytes, %v), plain reader (%d bytes, %v)",
				len(fromLen), lenErr, len(fromPlain), plainErr)
		}
		st, err := loadBoth[RunState](t, data)
		if err != nil {
			return
		}
		// A decodable state must either resume cleanly or fail with a
		// structured error — never panic.
		_, _ = st.Resume()
	})
}
