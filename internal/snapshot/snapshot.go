// Package snapshot provides versioned, deterministic checkpoint/restore of
// a complete simulation: trace generator position, per-scheme metadata
// caches and dirty state, integrity-tree contents, ADR region, the NVM
// backing store including its media-fault RNG stream and stuck-cell
// overlays, controller clocks, and metrics state. A run restored from a
// snapshot and driven to completion produces byte-identical metrics JSON
// to the uninterrupted run, at any GOMAXPROCS and under any fault seed.
//
// On-disk format: an 8-byte magic, a little-endian uint32 format version,
// a little-endian uint32 payload kind, a little-endian uint64 payload
// length, a little-endian uint32 IEEE CRC-32 of the payload, then the
// payload: for a RunState, as for a server checkpoint, the sectioned
// payload of payload.go (a gob skeleton, then every controller's per-line
// tables raw). Every map in the captured state is flattened to an
// address-sorted slice before encoding, so identical states produce
// identical bytes.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"steins/internal/memctrl"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sim"
	"steins/internal/trace"
)

// Version is the current snapshot format version. Readers reject any
// other version with ErrVersion.
const Version = 1

// magic identifies a snapshot file.
var magic = [8]byte{'S', 'T', 'E', 'I', 'N', 'S', 'N', 'P'}

// Payload kinds: the envelope carries which state family it wraps, so a
// campaign checkpoint cannot be silently resumed as a simulation run.
const (
	// KindRun is a RunState (a paused simulation).
	KindRun uint32 = 1
	// KindCampaign is retired: it marked the checkpoints of a torture
	// harness the adversarial campaign replaced. No reader accepts it, so
	// an old file of that kind is refused, and the number is never reused.
	KindCampaign uint32 = 2
	// KindAdversarial is an adversarial-campaign checkpoint
	// (internal/campaign owns the payload encoding).
	KindAdversarial uint32 = 3
	// KindRepro is a self-contained campaign repro artifact: one failing
	// case's scheme, seed and event schedule (internal/campaign owns the
	// payload encoding).
	KindRepro uint32 = 4
	// KindServer is a serving-layer checkpoint: every tenant's placement
	// groups and their channel controllers (see server.go).
	KindServer uint32 = 5
)

// headerLen is the fixed envelope prefix: magic + version + kind + length
// + CRC.
const headerLen = 8 + 4 + 4 + 8 + 4

// Structured decode failures. Every error returned by Decode wraps exactly
// one of these, so callers can switch on errors.Is without string matching.
var (
	// ErrTruncated marks a file shorter than its envelope declares.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrBadMagic marks a file that is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum marks payload corruption caught by the CRC.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt marks a payload that passed the CRC but failed to decode
	// (or decoded into an inconsistent state).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// RunHeader records the run configuration: everything needed to rebuild
// the engine and trace generator in a fresh process. Only scalar knobs are
// stored — the crypto primitives and fault model inside memctrl.Config are
// reconstructed from defaults plus the Faults/ECCDisable/DegradedRecovery
// fields, so a run
// configured through an arbitrary Options.Configure closure beyond those
// knobs cannot be captured here.
type RunHeader struct {
	Workload string // trace.Profile name (trace.ByName)
	Scheme   string // scheme display name (sim.SchemeByName)

	TotalOps  int // measured ops (Options.Ops)
	WarmupOps int
	Seed      uint64
	DataBytes uint64 // 0: profile footprint times two

	MetaCacheBytes int

	// Engine channel layout, as in sim.ShardOptions; Channels <= 1 is one
	// channel.
	Channels   int
	Interleave trace.Interleave
	EpochOps   int

	// Media-fault model and ECC gate, as passed to memctrl.Config.NVM.
	Faults     nvmem.FaultConfig
	ECCDisable bool
	// DegradedRecovery is memctrl.Config.DegradedRecovery.
	DegradedRecovery bool

	// Metrics collection options; HasMetrics false means no collector.
	HasMetrics bool
	Metrics    metrics.Options
}

// Options rebuilds the engine options the header describes.
func (h RunHeader) Options() (sim.Options, sim.ShardOptions) {
	faults, eccDisable, degraded := h.Faults, h.ECCDisable, h.DegradedRecovery
	opt := sim.Options{
		Ops:            h.TotalOps,
		WarmupOps:      h.WarmupOps,
		Seed:           h.Seed,
		DataBytes:      h.DataBytes,
		MetaCacheBytes: h.MetaCacheBytes,
		Configure: func(cfg *memctrl.Config) {
			cfg.NVM.Faults = faults
			cfg.NVM.ECC.Disable = eccDisable
			cfg.DegradedRecovery = degraded
		},
	}
	if h.HasMetrics {
		m := h.Metrics
		opt.Metrics = &m
	}
	so := sim.ShardOptions{
		Channels:   h.Channels,
		Interleave: h.Interleave,
		EpochOps:   h.EpochOps,
	}
	return opt, so
}

// RunState is the complete serialized image of a paused run: the
// configuration, the trace generator position, and the engine state.
type RunState struct {
	Header  RunHeader
	Trace   trace.GeneratorState
	Sharded *sim.ShardedState
}

func (*RunState) kind() uint32 { return KindRun }

// controllers lists the engine's controller states in channel order, the
// order the payload's column sections follow.
func (st *RunState) controllers() []*memctrl.ControllerState {
	if st.Sharded == nil {
		return nil
	}
	return st.Sharded.Ctrls
}

func (st *RunState) skeleton() *RunState {
	sk := *st
	if st.Sharded != nil {
		sh := *st.Sharded
		sh.Ctrls = make([]*memctrl.ControllerState, len(sh.Ctrls))
		for i, cs := range st.Sharded.Ctrls {
			if cs != nil { // gob refuses a nil controller
				c := *cs
				emptyTables(&c)
				sh.Ctrls[i] = &c
			}
		}
		sk.Sharded = &sh
	}
	return &sk
}

// CaptureSharded snapshots a run. The engine must be at an epoch barrier
// (DriveStreamN returned).
func CaptureSharded(h RunHeader, g *trace.Generator, e *sim.Sharded) (*RunState, error) {
	es, err := e.State()
	if err != nil {
		return nil, err
	}
	return &RunState{Header: h, Trace: g.State(), Sharded: es}, nil
}

// Resumed is a run rebuilt from a snapshot, ready to drive to completion.
type Resumed struct {
	Profile trace.Profile
	Scheme  sim.Scheme
	Gen     *trace.Generator
	Sharded *sim.Sharded
}

// Resume rebuilds the run the state describes: the profile and scheme are
// resolved by name, the header checked against them and the captured
// state, the engine reconstructed from the header knobs, and every layer
// restored. Failures wrap ErrCorrupt — the envelope was intact but the
// payload does not describe a loadable run.
func (st *RunState) Resume() (*Resumed, error) {
	h := st.Header
	prof, ok := trace.ByName(h.Workload)
	if !ok {
		return nil, fmt.Errorf("%w: unknown workload %q", ErrCorrupt, h.Workload)
	}
	s, ok := sim.SchemeByName(h.Scheme)
	if !ok {
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrCorrupt, h.Scheme)
	}
	if st.Sharded == nil {
		return nil, fmt.Errorf("%w: state carries no engine", ErrCorrupt)
	}
	if h.DataBytes != 0 && h.DataBytes < prof.FootprintBytes {
		return nil, fmt.Errorf("%w: data region %d smaller than %s footprint %d",
			ErrCorrupt, h.DataBytes, prof.Name, prof.FootprintBytes)
	}
	if h.MetaCacheBytes > memctrl.MaxMetaCacheBytes {
		return nil, fmt.Errorf("%w: metadata cache of %d bytes, above the %d-byte ceiling",
			ErrCorrupt, h.MetaCacheBytes, memctrl.MaxMetaCacheBytes)
	}
	if h.HasMetrics && h.Metrics.RingCap < 0 {
		return nil, fmt.Errorf("%w: metrics ring capacity %d is negative", ErrCorrupt, h.Metrics.RingCap)
	}
	if want := max(h.Channels, 1); len(st.Sharded.Ctrls) != want {
		return nil, fmt.Errorf("%w: state has %d channels, header declares %d",
			ErrCorrupt, len(st.Sharded.Ctrls), want)
	}
	opt, so := h.Options()
	g := trace.New(prof, opt.Seed, opt.WarmupOps+opt.Ops)
	g.Restore(st.Trace)
	e := sim.NewSharded(prof, s, opt, so)
	if err := e.Restore(st.Sharded); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Resumed{Profile: prof, Scheme: s, Gen: g, Sharded: e}, nil
}

// WriteEnvelope wraps an already-encoded payload of the given kind in the
// versioned, checksummed envelope. Other packages (campaign, server) reuse
// it for their own snapshot families.
func WriteEnvelope(w io.Writer, kind uint32, payload []byte) error {
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], kind)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	return nil
}

// ReadEnvelope validates the envelope and returns the payload bytes. It
// never panics on malformed input; every failure wraps one of the Err*
// sentinels (a kind mismatch wraps ErrCorrupt: the envelope was intact but
// wraps a different state family).
func ReadEnvelope(r io.Reader, kind uint32) ([]byte, error) {
	hdr := make([]byte, headerLen)
	n, _ := io.ReadFull(r, hdr) // a short read fails checkHeader as truncated
	plen, err := checkHeader(hdr[:n], kind)
	if err != nil {
		return nil, err
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return nil, err
	}
	return payload, checkCRC(hdr, crc32.ChecksumIEEE(payload))
}

// checkHeader validates the fixed envelope header (hdr holds the bytes read
// of it, all headerLen of them unless the file was short) and returns the
// declared payload length.
func checkHeader(hdr []byte, kind uint32) (uint64, error) {
	if len(hdr) < headerLen {
		return 0, fmt.Errorf("%w: %d-byte header, want %d", ErrTruncated, len(hdr), headerLen)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return 0, fmt.Errorf("%w: %q", ErrBadMagic, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return 0, fmt.Errorf("%w: file is v%d, reader is v%d", ErrVersion, v, Version)
	}
	if k := binary.LittleEndian.Uint32(hdr[12:]); k != kind {
		return 0, fmt.Errorf("%w: payload kind %d, want %d", ErrCorrupt, k, kind)
	}
	return binary.LittleEndian.Uint64(hdr[16:]), nil
}

// checkCRC compares a payload CRC with the one the header declares.
func checkCRC(hdr []byte, sum uint32) error {
	if want := binary.LittleEndian.Uint32(hdr[24:]); sum != want {
		return fmt.Errorf("%w: payload CRC %#x, envelope declares %#x", ErrChecksum, sum, want)
	}
	return nil
}

// readPayload reads the plen payload bytes that follow the header. A
// reader that reports how many bytes it has left (a bytes.Reader, say) gets
// one allocation of exactly plen bytes, once the stream is known to hold
// them. Any other reader goes through a LimitReader, which bounds the
// allocation to what the stream actually holds, so an absurd declared
// length on a tiny stream fails as truncated instead of attempting a huge
// allocation (a length past MaxInt64 is clamped, not wrapped negative, so
// the error counts the bytes the stream held).
func readPayload(r io.Reader, plen uint64) ([]byte, error) {
	if lr, ok := r.(interface{ Len() int }); ok {
		if left := uint64(lr.Len()); left < plen {
			return nil, fmt.Errorf("%w: payload is %d bytes, envelope declares %d", ErrTruncated, left, plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: reading payload: %v", ErrTruncated, err)
		}
		return payload, nil
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(min(plen, math.MaxInt64))))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrTruncated, err)
	}
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, envelope declares %d", ErrTruncated, len(payload), plen)
	}
	return payload, nil
}

// encode gob-encodes one payload value.
func encode(v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	return payload.Bytes(), nil
}

// SaveEnvelope writes payload in a kind envelope to path, replacing any
// existing file atomically and durably: the bytes go to a temporary file in
// the same directory, are fsynced, and only then renamed over path; the
// directory is fsynced after the rename. A crash or kill mid-save can never
// destroy the previous good checkpoint — the whole point of keeping one —
// and a power cut after SaveEnvelope returns can neither leave an empty
// file under path nor bring back the previous one. Every checkpoint family
// (runs, servers, campaigns) saves through it.
func SaveEnvelope(path string, kind uint32, payload []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	if err := WriteEnvelope(f, kind, payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	// CreateTemp opens 0600; keep the 0644 the plain-create path used.
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	// Persist the rename itself: until the directory entry is synced, a
	// power cut can bring back the previous file.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so entries renamed into it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
