// The sectioned payload every checkpoint that carries controller states
// (KindRun, KindServer) is written in, so the per-line tables restore from
// the bytes of the file (its mapped pages, or the buffer it was read
// into) rather than through a decoder:
//
//	[0, 8)     layout word: memctrl.StateLayout, little-endian
//	[8, 16)    skeleton length S, little-endian
//	[16, 16+S) gob skeleton: the state with every controller's per-line
//	           tables (memctrl.ControllerState.Tables) emptied
//	then, per controller in the state's order (a run's Sharded.Ctrls, a
//	server's tenant/PG/channel order), per table in Tables order and per
//	column of the table (arena.Table.Columns: chunk indices, then blocks),
//	an 8-byte little-endian length L and L raw bytes.
//
// Nothing follows the last column. Everything small — names, clocks,
// statistics, cached nodes, scheme blobs — stays in gob, which keeps the
// structure self-describing; only the tables that scale with the footprint
// are raw. Every such table is whole arena chunks (the device's lines and
// wear, the data tags), whose blocks a restore adopts in place. A payload
// of any other layout, a gob run snapshot included, is refused by the
// layout word.

package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"steins/internal/arena"
	"steins/internal/memctrl"
)

// checkpoint is a state that travels in the sectioned payload: *RunState
// or *ServerState. S is the state's struct type, so a loader can allocate
// one.
type checkpoint[S any] interface {
	*S
	// kind is the envelope's payload kind.
	kind() uint32
	// controllers lists the state's controllers in section order.
	controllers() []*memctrl.ControllerState
	// skeleton returns a copy of the state whose controllers carry no
	// per-line tables (emptyTables); the rest is shared with the state,
	// which is not modified.
	skeleton() *S
}

// payloadHeaderLen is the payload's fixed header: layout word and skeleton
// length.
const payloadHeaderLen = 16

// ctrlSections is the number of column sections per controller: two per
// per-line table.
const ctrlSections = 2 * memctrl.StateTables

// emptyTables drops a skeleton controller's per-line tables.
func emptyTables(cs *memctrl.ControllerState) {
	for _, t := range cs.Tables() {
		*t = arena.Table{}
	}
}

// columns lists a controller's column sections in payload order.
func columns(cs *memctrl.ControllerState) [ctrlSections][]byte {
	var cols [ctrlSections][]byte
	for j, t := range cs.Tables() {
		c := t.Columns()
		cols[2*j], cols[2*j+1] = c[0], c[1]
	}
	return cols
}

// encodePayload lays st out as a sectioned payload.
func encodePayload[S any, P checkpoint[S]](st P) ([]byte, error) {
	sk, err := encode(st.skeleton())
	if err != nil {
		return nil, err
	}
	ctrls := st.controllers()
	size := payloadHeaderLen + len(sk)
	for i, cs := range ctrls {
		for j, t := range cs.Tables() {
			if t.Released() {
				return nil, fmt.Errorf("snapshot: encode: controller %d table %d: %w", i, j, arena.ErrReleased)
			}
		}
		for _, col := range columns(cs) {
			size += 8 + len(col)
		}
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, memctrl.StateLayout)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(sk)))
	out = append(out, sk...)
	for _, cs := range ctrls {
		for _, col := range columns(cs) {
			out = binary.LittleEndian.AppendUint64(out, uint64(len(col)))
			out = append(out, col...)
		}
	}
	return out, nil
}

// parse splits a sectioned payload back into a state whose columns are
// sub-slices of payload, tables over b's memory when payload lies in a
// Backing (nil: the Go heap). Every failure wraps ErrCorrupt: the envelope
// was intact, the payload is not one encodePayload writes. load runs the
// same steps, with the skeleton's decode overlapping the payload's CRC.
func parse[S any, P checkpoint[S]](payload []byte, b *arena.Backing) (P, error) {
	skLen, err := parseHead(payload, uint64(len(payload)))
	if err != nil {
		return nil, err
	}
	st, err := decodeSkeleton[S, P](payload[payloadHeaderLen : payloadHeaderLen+skLen])
	if err != nil {
		return nil, err
	}
	return frame(st, payload[payloadHeaderLen+skLen:], b)
}

// frame points the columns of st's controllers at the column sections in
// rest, the payload after the skeleton, and returns st.
func frame[S any, P checkpoint[S]](st P, rest []byte, b *arena.Backing) (P, error) {
	ctrls := st.controllers()
	secs, tail := splitSections(rest, len(ctrls)*ctrlSections)
	if err := frameColumns(ctrls, secs, tail, b); err != nil {
		return nil, err
	}
	return st, nil
}

// parseHead checks the payload head (its first payloadHeaderLen bytes, or
// all of a shorter payload) of a payload of n bytes and returns the
// skeleton length.
func parseHead(head []byte, n uint64) (uint64, error) {
	if n < payloadHeaderLen {
		return 0, fmt.Errorf("%w: payload of %d bytes, shorter than its %d-byte header",
			ErrCorrupt, n, payloadHeaderLen)
	}
	if layout := binary.LittleEndian.Uint64(head); layout != memctrl.StateLayout {
		return 0, fmt.Errorf("%w: payload layout %#x, want %d (checkpoints of older layouts are refused; re-create them)",
			ErrCorrupt, layout, memctrl.StateLayout)
	}
	skLen := binary.LittleEndian.Uint64(head[8:])
	if left := n - payloadHeaderLen; skLen > left {
		return 0, fmt.Errorf("%w: skeleton of %d bytes, %d left in the payload", ErrCorrupt, skLen, left)
	}
	return skLen, nil
}

// decodeSkeleton gob-decodes the skeleton, which must be exactly one
// value.
func decodeSkeleton[S any, P checkpoint[S]](sk []byte) (P, error) {
	st := P(new(S))
	r := bytes.NewReader(sk)
	if err := gob.NewDecoder(r).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: skeleton: %v", ErrCorrupt, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the skeleton's gob value", ErrCorrupt, r.Len())
	}
	return st, nil
}

// splitSections splits rest, the payload after the skeleton, into at most
// count length-prefixed column sections, aliasing rest. What does not split
// into them (bytes past the last, a length word cut off, or a section
// longer than the bytes left) is returned whole as the tail, for
// frameColumns to refuse.
func splitSections(rest []byte, count int) (secs [][]byte, tail []byte) {
	for len(secs) < count && len(rest) >= 8 {
		n := binary.LittleEndian.Uint64(rest)
		if n > uint64(len(rest)-8) {
			break
		}
		secs = append(secs, rest[8:8+n:8+n])
		rest = rest[8+n:]
	}
	return secs, rest
}

// frameColumns points the columns of ctrls at secs, the column sections in
// payload order, as tables over b (arena.Backing.Table). tail is what
// followed the last whole section; a checkpoint has none.
func frameColumns(ctrls []*memctrl.ControllerState, secs [][]byte, tail []byte, b *arena.Backing) error {
	for i, cs := range ctrls {
		cols := columns(cs)
		for j, col := range cols {
			if len(col) != 0 {
				return fmt.Errorf("%w: skeleton carries column %d of controller %d", ErrCorrupt, j, i)
			}
			if len(secs) == 0 {
				if len(tail) < 8 {
					return fmt.Errorf("%w: column %d of controller %d: section length cut off", ErrCorrupt, j, i)
				}
				return fmt.Errorf("%w: column %d of controller %d: %d-byte section, %d bytes left",
					ErrCorrupt, j, i, binary.LittleEndian.Uint64(tail), len(tail)-8)
			}
			cols[j], secs = secs[0], secs[1:]
		}
		for j, t := range cs.Tables() {
			var err error
			if *t, err = b.Table(cols[2*j], cols[2*j+1]); err != nil {
				return fmt.Errorf("%w: controller %d: %v", ErrCorrupt, i, err)
			}
		}
	}
	if extra := len(tail) + 8*len(secs); extra != 0 {
		for _, sec := range secs {
			extra += len(sec)
		}
		return fmt.Errorf("%w: %d bytes after the last column section", ErrCorrupt, extra)
	}
	return nil
}

// Encode serializes a run or server state into envelope bytes of its
// kind.
func Encode[S any, P checkpoint[S]](st P) ([]byte, error) {
	payload, err := encodePayload[S](st)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(headerLen + len(payload))
	if err := WriteEnvelope(&out, st.kind(), payload); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decode reads an envelope of the state's kind from r and parses the
// state (Decode[RunState] or Decode[ServerState]); its columns are
// sub-slices of the payload read from r. Malformed input yields the
// envelope sentinels (ErrTruncated, ErrBadMagic, ErrVersion, ErrChecksum,
// ErrCorrupt); it never panics.
func Decode[S any, P checkpoint[S]](r io.Reader) (P, error) {
	payload, err := ReadEnvelope(r, P(nil).kind())
	if err != nil {
		return nil, err
	}
	return parse[S, P](payload, nil)
}

// SaveFile writes a run or server state to path through SaveEnvelope, so
// a crash mid-save can never truncate the previous good checkpoint.
func SaveFile[S any, P checkpoint[S]](path string, st P) error {
	payload, err := encodePayload[S](st)
	if err != nil {
		return err
	}
	return SaveEnvelope(path, st.kind(), payload)
}

// LoadFile reads a checkpoint file of the state's kind and parses it
// (LoadFile[RunState] or LoadFile[ServerState]). It returns what Decode
// returns for the file's bytes, errors in Decode's order: a short file,
// then a CRC mismatch, then a payload that does not parse.
//
// Where it can (a regular file on Linux, mapFile), LoadFile maps the file
// privately and parses it in place (load): the state's per-line tables
// are the mapping's pages, so the blocks a restore adopts are never
// copied into the heap, and a restored device's writes land in private
// copies of the pages they touch, never in the file. The mapping is
// unmapped once every table over it is released: by the restore that
// adopted it when the pool or controller closes (memctrl.Controller.Close),
// or, for tables no live restore holds, when the collector finds them
// garbage. Anything else (a file that cannot be mapped, a pipe, another
// OS) is read whole into the heap and parsed there.
//
// A mapped file must not shrink while a state loaded from it lives:
// touching a page past the end raises SIGBUS. SaveEnvelope never
// truncates: it renames a new file over the old one, whose mapping keeps
// the old inode, so a daemon may save over the checkpoint it restored from.
func LoadFile[S any, P checkpoint[S]](path string) (P, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var buf bytes.Buffer
	if fi.Mode().IsRegular() {
		if data, unmap, ok := mapFile(f, fi.Size()); ok {
			b := arena.NewBacking(unmap)
			defer b.Done()
			return load[S, P](data, b)
		}
		// Only a regular file's size hints at how much there is to read.
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return load[S, P](buf.Bytes(), nil)
}

// load parses data, a whole checkpoint file, in place: the state's
// columns alias data, as tables over b when data is b's memory. It
// returns what Decode returns for the same bytes, but takes the payload's
// CRC while the skeleton gob-decodes on another goroutine.
func load[S any, P checkpoint[S]](data []byte, b *arena.Backing) (P, error) {
	plen, err := checkHeader(data[:min(len(data), headerLen)], P(nil).kind())
	if err != nil {
		return nil, err
	}
	if left := uint64(len(data) - headerLen); left < plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, envelope declares %d", ErrTruncated, left, plen)
	}
	payload := data[headerLen : headerLen+plen : headerLen+plen]
	skLen, parseErr := parseHead(payload, plen)
	var st P
	var done chan struct{}
	if parseErr == nil {
		done = make(chan struct{})
		go func() {
			defer close(done)
			st, parseErr = decodeSkeleton[S, P](payload[payloadHeaderLen : payloadHeaderLen+skLen])
		}()
	}
	err = checkCRC(data, crc32.ChecksumIEEE(payload))
	if done != nil {
		<-done
	}
	switch {
	case err != nil:
		return nil, err
	case parseErr != nil:
		return nil, parseErr
	}
	return frame(st, payload[payloadHeaderLen+skLen:], b)
}
