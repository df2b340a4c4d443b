// Server-state checkpoints: the serving layer's complete engine state —
// every tenant's placement groups, every placement group's channel
// controllers — wrapped in the same versioned CRC-protected envelope the
// run snapshots use, under its own payload kind. A daemon drained on
// SIGTERM saves one of these; a restarting daemon loads it, restores the
// controllers, then models the outage as Crash + Recover per placement
// group.
//
// The payload is sectioned, so the per-line tables restore in place from
// the bytes the file was loaded into rather than through a decoder:
//
//	[0, 8)     layout word: memctrl.StateLayout, little-endian
//	[8, 16)    skeleton length S, little-endian
//	[16, 16+S) gob skeleton: the ServerState with every controller's
//	           columns (memctrl.ControllerState.Columns) emptied
//	then, per controller in tenant/PG/channel order and per column in
//	Columns order, an 8-byte little-endian length L and L raw bytes.
//
// Nothing follows the last column. Everything small — names, clocks,
// statistics, cached nodes, scheme blobs — stays in gob, which keeps the
// structure self-describing; only the tables that scale with the pool are
// raw. Checkpoints of layout 2 and older were one gob value, and layout 3
// framed the same sections around hand-encoded scheme blobs; both are
// refused by the layout word.
//
// Tenant configuration deliberately does NOT ride along (mirroring run
// snapshots, which resolve workloads through the trace registry): the
// restarting server is built from its own configuration and the restore
// fails with a structured error if the shape (tenants, interleave,
// placement groups, channels) does not match the checkpoint.

package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"steins/internal/memctrl"
)

// PGState is one placement group: its channel controllers, in channel
// order.
type PGState struct {
	Channels []memctrl.ControllerState
}

// TenantState is one tenant's pool at a batch boundary.
type TenantState struct {
	Name   string
	Scheme string
	// Interleave is the tenant's trace.Interleave spelling, which fixes
	// where each address lives in its placement groups. Checkpoints
	// written before it was recorded leave it empty.
	Interleave string
	// AppliedSeq is the tenant's linearization cursor: how many operations
	// had been admitted to the request log when the checkpoint was taken.
	AppliedSeq uint64
	PGs        []PGState
}

// ServerState is the complete serving-layer checkpoint, tenants sorted by
// name so identical states produce identical bytes.
type ServerState struct {
	Tenants []TenantState
}

// serverHeaderLen is the payload's fixed header: layout word and skeleton
// length.
const serverHeaderLen = 16

// channels lists every controller state of st in tenant/PG/channel order,
// the order the payload's column sections follow.
func (st *ServerState) channels() []*memctrl.ControllerState {
	var out []*memctrl.ControllerState
	for i := range st.Tenants {
		for k := range st.Tenants[i].PGs {
			pg := &st.Tenants[i].PGs[k]
			for c := range pg.Channels {
				out = append(out, &pg.Channels[c])
			}
		}
	}
	return out
}

// skeleton returns a copy of st whose controllers carry no columns; the
// rest is shared with st, which is not modified.
func skeleton(st *ServerState) *ServerState {
	sk := &ServerState{Tenants: append([]TenantState(nil), st.Tenants...)}
	for i := range sk.Tenants {
		pgs := make([]PGState, len(sk.Tenants[i].PGs))
		for k, pg := range sk.Tenants[i].PGs {
			pgs[k].Channels = append([]memctrl.ControllerState(nil), pg.Channels...)
		}
		sk.Tenants[i].PGs = pgs
	}
	for _, cs := range sk.channels() {
		cs.SetColumns([memctrl.StateColumns][]byte{}) // empty columns always fit
	}
	return sk
}

// encodeServerPayload lays st out as a sectioned payload.
func encodeServerPayload(st *ServerState) ([]byte, error) {
	sk, err := encode(skeleton(st))
	if err != nil {
		return nil, err
	}
	chans := st.channels()
	size := serverHeaderLen + len(sk)
	for _, cs := range chans {
		for _, col := range cs.Columns() {
			size += 8 + len(col)
		}
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, memctrl.StateLayout)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(sk)))
	out = append(out, sk...)
	for _, cs := range chans {
		for _, col := range cs.Columns() {
			out = binary.LittleEndian.AppendUint64(out, uint64(len(col)))
			out = append(out, col...)
		}
	}
	return out, nil
}

// parseServer splits a sectioned payload back into a ServerState whose
// columns are sub-slices of payload. Every failure wraps ErrCorrupt: the
// envelope was intact, the payload is not one encodeServerPayload writes.
// LoadServerFile runs the same three steps, with the skeleton's decode
// overlapping the read of the column sections.
func parseServer(payload []byte) (*ServerState, error) {
	skLen, err := parseHead(payload, uint64(len(payload)))
	if err != nil {
		return nil, err
	}
	st, err := decodeSkeleton(payload[serverHeaderLen : serverHeaderLen+skLen])
	if err != nil {
		return nil, err
	}
	if err := frameColumns(st, payload[serverHeaderLen+skLen:]); err != nil {
		return nil, err
	}
	return st, nil
}

// parseHead checks the payload head (its first serverHeaderLen bytes, or
// all of a shorter payload) of a payload of n bytes and returns the
// skeleton length.
func parseHead(head []byte, n uint64) (uint64, error) {
	if n < serverHeaderLen {
		return 0, fmt.Errorf("%w: server payload of %d bytes, shorter than its %d-byte header",
			ErrCorrupt, n, serverHeaderLen)
	}
	if layout := binary.LittleEndian.Uint64(head); layout != memctrl.StateLayout {
		return 0, fmt.Errorf("%w: server payload layout %#x, want %d (checkpoints of older layouts are refused; re-create them)",
			ErrCorrupt, layout, memctrl.StateLayout)
	}
	skLen := binary.LittleEndian.Uint64(head[8:])
	if left := n - serverHeaderLen; skLen > left {
		return 0, fmt.Errorf("%w: server skeleton of %d bytes, %d left in the payload", ErrCorrupt, skLen, left)
	}
	return skLen, nil
}

// decodeSkeleton gob-decodes the skeleton, which must be exactly one
// value.
func decodeSkeleton(sk []byte) (*ServerState, error) {
	st := &ServerState{}
	r := bytes.NewReader(sk)
	if err := gob.NewDecoder(r).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: server skeleton: %v", ErrCorrupt, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the server skeleton's gob value", ErrCorrupt, r.Len())
	}
	return st, nil
}

// frameColumns points the columns of st's controllers at their sections
// in rest, the payload after the skeleton.
func frameColumns(st *ServerState, rest []byte) error {
	for i, cs := range st.channels() {
		var cols [memctrl.StateColumns][]byte
		for j, col := range cs.Columns() {
			if len(col) != 0 {
				return fmt.Errorf("%w: server skeleton carries column %d of controller %d", ErrCorrupt, j, i)
			}
			if len(rest) < 8 {
				return fmt.Errorf("%w: column %d of controller %d: section length cut off", ErrCorrupt, j, i)
			}
			n := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			if n > uint64(len(rest)) {
				return fmt.Errorf("%w: column %d of controller %d: %d-byte section, %d bytes left",
					ErrCorrupt, j, i, n, len(rest))
			}
			cols[j], rest = rest[:n:n], rest[n:]
		}
		if err := cs.SetColumns(cols); err != nil {
			return fmt.Errorf("%w: controller %d: %v", ErrCorrupt, i, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after the last column section", ErrCorrupt, len(rest))
	}
	return nil
}

// EncodeServer serializes a server state into KindServer envelope bytes.
func EncodeServer(st *ServerState) ([]byte, error) {
	payload, err := encodeServerPayload(st)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(headerLen + len(payload))
	if err := WriteEnvelope(&out, KindServer, payload); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeServer reads a KindServer envelope and parses the server state;
// its columns are sub-slices of the payload read from r. Malformed input
// yields the envelope sentinels (ErrTruncated, ErrBadMagic, ErrVersion,
// ErrChecksum, ErrCorrupt); it never panics.
func DecodeServer(r io.Reader) (*ServerState, error) {
	payload, err := ReadEnvelope(r, KindServer)
	if err != nil {
		return nil, err
	}
	return parseServer(payload)
}

// SaveServerFile writes a server checkpoint through SaveEnvelope, so a
// crash mid-save can never truncate the previous good checkpoint.
func SaveServerFile(path string, st *ServerState) error {
	payload, err := encodeServerPayload(st)
	if err != nil {
		return err
	}
	return SaveEnvelope(path, KindServer, payload)
}

// LoadServerFile reads a server checkpoint file and parses it: the
// state's columns are sub-slices of the bytes the file was read into,
// which a restore then reads in place. It returns what DecodeServer
// returns for the file's bytes, but pipelines the work: the skeleton is
// gob-decoded on its own goroutine while the column sections are read and
// the payload CRC is taken, and the columns are framed last. Errors keep
// DecodeServer's precedence: a short file, then a CRC mismatch, then a
// payload that does not parse.
func LoadServerFile(path string) (*ServerState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if !fi.Mode().IsRegular() {
		// Only a regular file's size bounds the payload before it is
		// read; anything else is read whole first.
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		payload, err := envelopePayload(data, KindServer)
		if err != nil {
			return nil, err
		}
		return parseServer(payload)
	}
	hdr := make([]byte, headerLen)
	n, _ := io.ReadFull(f, hdr) // a short read fails checkHeader as truncated
	plen, err := checkHeader(hdr[:n], KindServer)
	if err != nil {
		return nil, err
	}
	if left := uint64(fi.Size() - headerLen); left < plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, envelope declares %d", ErrTruncated, left, plen)
	}
	readFull := func(b []byte) error {
		if _, err := io.ReadFull(f, b); err != nil {
			return fmt.Errorf("%w: reading payload: %v", ErrTruncated, err)
		}
		return nil
	}
	head := make([]byte, min(plen, serverHeaderLen))
	if err := readFull(head); err != nil {
		return nil, err
	}
	skLen, parseErr := parseHead(head, plen)
	// Both buffers are allocated before the decode starts, so a collection
	// the large one triggers begins its mark while a core is still free.
	// Allocated after, the mark overlapped the decode and the restore that
	// follows, counted the restored controllers live and raised the
	// restart's peak heap.
	sk := make([]byte, skLen)
	sections := make([]byte, plen-uint64(len(head))-skLen)
	type decoded struct {
		st  *ServerState
		err error
	}
	var done chan decoded
	if parseErr == nil {
		if err := readFull(sk); err != nil {
			return nil, err
		}
		done = make(chan decoded, 1)
		go func() {
			st, err := decodeSkeleton(sk)
			done <- decoded{st, err}
		}()
	}
	err = readFull(sections)
	if err == nil {
		sum := crc32.Update(0, crc32.IEEETable, head)
		sum = crc32.Update(sum, crc32.IEEETable, sk)
		err = checkCRC(hdr, crc32.Update(sum, crc32.IEEETable, sections))
	}
	var st *ServerState
	if done != nil {
		d := <-done
		st, parseErr = d.st, d.err
	}
	switch {
	case err != nil:
		return nil, err
	case parseErr != nil:
		return nil, parseErr
	}
	if err := frameColumns(st, sections); err != nil {
		return nil, err
	}
	return st, nil
}
