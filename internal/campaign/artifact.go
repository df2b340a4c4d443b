// Repro artifacts: a failing case serialized as a self-contained file —
// scheme, workload, seed, shape and the full (minimized) event schedule —
// wrapped in the shared snapshot envelope with its own payload kind.
//
// The codec is a manual canonical binary encoding rather than gob: the
// fuzz contract requires that DecodeArtifact never panics on arbitrary
// bytes and that every successfully decoded artifact re-encodes to the
// exact bytes it came from (so artifacts can be content-addressed and
// diffed). Canonical means the decoder rejects anything the encoder cannot
// produce: unknown versions, unknown flag bits, and trailing bytes.

package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"steins/internal/nvmem"
	"steins/internal/snapshot"
)

// ArtifactVersion is the repro payload format version.
const ArtifactVersion = 1

// maxArtifactRounds bounds hostile round counts before allocation.
const maxArtifactRounds = 4096

// Artifact is one failing case plus its recorded classification; -repro
// replays the case and must reproduce the verdict exactly.
type Artifact struct {
	Case    Case
	Verdict Verdict
	Detail  string
}

type artifactWriter struct{ b bytes.Buffer }

func (w *artifactWriter) u8(v uint8)   { w.b.WriteByte(v) }
func (w *artifactWriter) u16(v uint16) { w.b.Write(binary.LittleEndian.AppendUint16(nil, v)) }
func (w *artifactWriter) u32(v uint32) { w.b.Write(binary.LittleEndian.AppendUint32(nil, v)) }
func (w *artifactWriter) u64(v uint64) { w.b.Write(binary.LittleEndian.AppendUint64(nil, v)) }
func (w *artifactWriter) str(s string) { w.u16(uint16(len(s))); w.b.WriteString(s) }

// EncodeArtifact serialises an artifact (envelope included).
func EncodeArtifact(a *Artifact) ([]byte, error) {
	payload, err := encodePayload(a)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := snapshot.WriteEnvelope(&out, snapshot.KindRepro, payload); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// encodePayload serialises an artifact without the envelope.
func encodePayload(a *Artifact) ([]byte, error) {
	if len(a.Case.Sched.Rounds) > maxArtifactRounds {
		return nil, fmt.Errorf("campaign: %d rounds exceed the artifact bound", len(a.Case.Sched.Rounds))
	}
	for _, s := range []string{a.Case.Scheme, a.Case.Workload, a.Detail} {
		if len(s) > math.MaxUint16 {
			return nil, fmt.Errorf("campaign: artifact string too long (%d bytes)", len(s))
		}
	}
	var w artifactWriter
	w.u16(ArtifactVersion)
	w.str(a.Case.Scheme)
	w.str(a.Case.Workload)
	w.u64(a.Case.Seed)
	w.u32(uint32(a.Case.Index))
	w.u8(uint8(a.Case.Channels))
	w.u64(a.Case.Footprint)
	var flags uint8
	if a.Case.Sched.Degraded {
		flags |= 1
	}
	if a.Case.Sched.Sabotage {
		flags |= 2
	}
	w.u8(flags)
	f := a.Case.Sched.Faults
	w.u64(f.Seed)
	w.u64(math.Float64bits(f.TransientPerRead))
	w.u64(math.Float64bits(f.DoubleBitFrac))
	w.u64(math.Float64bits(f.StuckPerWrite))
	w.u64(math.Float64bits(f.TornOnCrash))
	w.u16(uint16(a.Verdict))
	w.str(a.Detail)
	w.u16(uint16(len(a.Case.Sched.Rounds)))
	for _, rd := range a.Case.Sched.Rounds {
		if len(rd.Tampers) > math.MaxUint8 {
			return nil, fmt.Errorf("campaign: %d tampers exceed the artifact bound", len(rd.Tampers))
		}
		w.u32(rd.Ops)
		var rf uint8
		if rd.Crash {
			rf |= 1
		}
		if rd.Recrash {
			rf |= 2
		}
		w.u8(rf)
		w.u8(rd.CrashEv)
		w.u32(rd.CrashN)
		w.u32(rd.RecrashStep)
		w.u8(rd.RecrashChan)
		w.u8(rd.FlipNodes)
		w.u8(rd.FlipData)
		w.u8(uint8(len(rd.Tampers)))
		for _, tm := range rd.Tampers {
			w.u8(tm.Scenario)
			w.u32(tm.TargetIdx)
		}
	}
	return w.b.Bytes(), nil
}

// artifactReader is a bounds-checked cursor; every read reports failure
// through ok so malformed input can never panic the decoder.
type artifactReader struct {
	b   []byte
	off int
	ok  bool
}

func (r *artifactReader) take(n int) []byte {
	if !r.ok || n < 0 || len(r.b)-r.off < n {
		r.ok = false
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *artifactReader) u8() uint8 {
	if b := r.take(1); r.ok {
		return b[0]
	}
	return 0
}

func (r *artifactReader) u16() uint16 {
	if b := r.take(2); r.ok {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *artifactReader) u32() uint32 {
	if b := r.take(4); r.ok {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *artifactReader) u64() uint64 {
	if b := r.take(8); r.ok {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *artifactReader) str() string {
	n := int(r.u16())
	if b := r.take(n); r.ok {
		return string(b)
	}
	return ""
}

// DecodeArtifact parses an artifact file (envelope included). It never
// panics; every failure wraps a snapshot envelope sentinel or reports the
// payload offset. Decode∘Encode is the identity on valid artifacts and
// Encode∘Decode is the identity on valid files.
func DecodeArtifact(data []byte) (*Artifact, error) {
	br := bytes.NewReader(data)
	payload, err := snapshot.ReadEnvelope(br, snapshot.KindRepro)
	if err != nil {
		return nil, err
	}
	// The envelope reader is stream-oriented; an artifact file is exactly
	// one envelope, so anything after it breaks canonicality.
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after repro envelope", snapshot.ErrCorrupt, br.Len())
	}
	r := &artifactReader{b: payload, ok: true}
	if v := r.u16(); !r.ok || v != ArtifactVersion {
		return nil, fmt.Errorf("%w: repro payload version %d, want %d", snapshot.ErrVersion, v, ArtifactVersion)
	}
	a := &Artifact{}
	a.Case.Scheme = r.str()
	a.Case.Workload = r.str()
	a.Case.Seed = r.u64()
	a.Case.Index = int(r.u32())
	a.Case.Channels = int(r.u8())
	a.Case.Footprint = r.u64()
	flags := r.u8()
	if flags&^uint8(3) != 0 {
		return nil, fmt.Errorf("%w: unknown schedule flags %#x", snapshot.ErrCorrupt, flags)
	}
	a.Case.Sched.Degraded = flags&1 != 0
	a.Case.Sched.Sabotage = flags&2 != 0
	a.Case.Sched.Faults = nvmem.FaultConfig{
		Seed:             r.u64(),
		TransientPerRead: math.Float64frombits(r.u64()),
		DoubleBitFrac:    math.Float64frombits(r.u64()),
		StuckPerWrite:    math.Float64frombits(r.u64()),
		TornOnCrash:      math.Float64frombits(r.u64()),
	}
	a.Verdict = Verdict(r.u16())
	a.Detail = r.str()
	nRounds := int(r.u16())
	if nRounds > maxArtifactRounds {
		return nil, fmt.Errorf("%w: %d rounds exceed the artifact bound", snapshot.ErrCorrupt, nRounds)
	}
	for i := 0; i < nRounds && r.ok; i++ {
		var rd Round
		rd.Ops = r.u32()
		rf := r.u8()
		if rf&^uint8(3) != 0 {
			return nil, fmt.Errorf("%w: unknown round flags %#x", snapshot.ErrCorrupt, rf)
		}
		rd.Crash = rf&1 != 0
		rd.Recrash = rf&2 != 0
		rd.CrashEv = r.u8()
		rd.CrashN = r.u32()
		rd.RecrashStep = r.u32()
		rd.RecrashChan = r.u8()
		rd.FlipNodes = r.u8()
		rd.FlipData = r.u8()
		nT := int(r.u8())
		for t := 0; t < nT && r.ok; t++ {
			rd.Tampers = append(rd.Tampers, Tamper{Scenario: r.u8(), TargetIdx: r.u32()})
		}
		a.Case.Sched.Rounds = append(a.Case.Sched.Rounds, rd)
	}
	if !r.ok {
		return nil, fmt.Errorf("%w: repro payload truncated at offset %d", snapshot.ErrTruncated, r.off)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after repro payload", snapshot.ErrCorrupt, len(payload)-r.off)
	}
	return a, nil
}

// SaveArtifact writes an artifact to path through the snapshot package's
// durable atomic writer, so a crash mid-save leaves the previous file or
// the new one, never a torn artifact. The bytes are EncodeArtifact's.
func SaveArtifact(path string, a *Artifact) error {
	payload, err := encodePayload(a)
	if err != nil {
		return err
	}
	return snapshot.SaveEnvelope(path, snapshot.KindRepro, payload)
}

// LoadArtifact reads an artifact from path.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeArtifact(data)
}

// Replay re-executes an artifact's case and reports whether the recorded
// classification reproduced.
func Replay(a *Artifact) (CaseResult, bool) {
	res := RunCase(a.Case)
	return res, res.Verdict == a.Verdict
}
