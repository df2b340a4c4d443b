// The sectioned payload every checkpoint that carries controller states
// (KindRun, KindServer) is written in, so the per-line tables restore from
// the bytes the file was loaded into rather than through a decoder:
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

// isBlocks reports whether column section k of a payload holds chunk
// blocks, which a restore adopts: every table frames as its chunk indices,
// then its blocks, so the odd sections are the blocks.
func isBlocks(k int) bool { return k%2 == 1 }

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
	for _, cs := range ctrls {
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
// sub-slices of payload. Every failure wraps ErrCorrupt: the envelope was
// intact, the payload is not one encodePayload writes. LoadFile runs the
// same three steps, with the skeleton's decode overlapping the read of the
// column sections.
func parse[S any, P checkpoint[S]](payload []byte) (P, error) {
	skLen, err := parseHead(payload, uint64(len(payload)))
	if err != nil {
		return nil, err
	}
	st, err := decodeSkeleton[S, P](payload[payloadHeaderLen : payloadHeaderLen+skLen])
	if err != nil {
		return nil, err
	}
	secs, tail := splitSections(payload[payloadHeaderLen+skLen:], len(st.controllers())*ctrlSections)
	if err := frameColumns(st.controllers(), secs, tail); err != nil {
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
// payload order. tail is what followed the last whole section; a
// checkpoint has none.
func frameColumns(ctrls []*memctrl.ControllerState, secs [][]byte, tail []byte) error {
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
			if *t, err = arena.TableFrom(cols[2*j], cols[2*j+1]); err != nil {
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
	return parse[S, P](payload)
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
// (LoadFile[RunState] or LoadFile[ServerState]). The device blocks a
// restore adopts are read into an allocation of their own, so they keep
// nothing else of the file alive (readSections). It returns what Decode
// returns for the file's bytes, but pipelines the work: the skeleton is
// gob-decoded on its own goroutine while the column sections are read and
// the payload CRC is taken, and the columns are framed last. Errors keep
// Decode's precedence: a short file, then a CRC mismatch, then a payload
// that does not parse.
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
	if !fi.Mode().IsRegular() {
		// Only a regular file's size bounds the payload before it is
		// read; anything else is read whole first.
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		return Decode[S, P](bytes.NewReader(data))
	}
	hdr := make([]byte, headerLen)
	n, _ := io.ReadFull(f, hdr) // a short read fails checkHeader as truncated
	plen, err := checkHeader(hdr[:n], P(nil).kind())
	if err != nil {
		return nil, err
	}
	if left := uint64(fi.Size() - headerLen); left < plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, envelope declares %d", ErrTruncated, left, plen)
	}
	head := make([]byte, min(plen, payloadHeaderLen))
	if err := readAt(f, head, headerLen); err != nil {
		return nil, err
	}
	skLen, parseErr := parseHead(head, plen)
	sk := make([]byte, skLen)
	type decoded struct {
		st  P
		err error
	}
	var done chan decoded
	if parseErr == nil {
		if err := readAt(f, sk, int64(headerLen+len(head))); err != nil {
			return nil, err
		}
		done = make(chan decoded, 1)
		go func() {
			st, err := decodeSkeleton[S, P](sk)
			done <- decoded{st, err}
		}()
	}
	var st P
	wait := func() {
		if done != nil {
			d := <-done
			st, parseErr, done = d.st, d.err, nil
		}
	}
	// The walk over the sections takes the first eagerSections while the
	// skeleton decodes; past them it waits for the decode and stops at
	// the sections the skeleton's controllers frame, so a payload padded
	// with length words costs no more than a valid one.
	more := func(k int) bool {
		if k >= eagerSections {
			wait()
		}
		return parseErr == nil && (st == nil || k < len(st.controllers())*ctrlSections)
	}
	sum := crc32.Update(0, crc32.IEEETable, head)
	sum = crc32.Update(sum, crc32.IEEETable, sk)
	secs, tail, err := readSections(f, int64(headerLen+uint64(len(head))+skLen), plen-uint64(len(head))-skLen, &sum, more)
	if err == nil {
		err = checkCRC(hdr, sum)
	}
	wait()
	switch {
	case err != nil:
		return nil, err
	case parseErr != nil:
		return nil, parseErr
	}
	if err := frameColumns(st.controllers(), secs, tail); err != nil {
		return nil, err
	}
	return st, nil
}

// eagerSections is how many column sections LoadFile walks before the
// skeleton's decode has told it how many there are: all of them for a
// state of up to eight controllers.
const eagerSections = 8 * ctrlSections

// readSections reads the n bytes of column sections at offset off of f,
// split the way splitSections splits them, and folds every byte into the
// CRC sum. more(k) reports whether section k is one to split off; the
// bytes from the first section it refuses on are the tail. The length
// words are read first, so the sections can be laid out in two
// allocations: one holding the chunk blocks, which a restore adopts
// (isBlocks), and one for the chunk indices, which the restore reads and
// drops. The adopted blocks thus keep no other part of the file alive. Reading all
// sections into one allocation measured slower in the restart benchmark
// (DESIGN.md, "Layout 5").
func readSections(f *os.File, off int64, n uint64, sum *uint32, more func(k int) bool) (secs [][]byte, tail []byte, err error) {
	var lens []uint64
	var word [8]byte
	var nBlocks, nOther uint64
	at, left := off, n
	for left >= 8 && more(len(lens)) {
		if err := readAt(f, word[:], at); err != nil {
			return nil, nil, err
		}
		l := binary.LittleEndian.Uint64(word[:])
		if l > left-8 {
			break
		}
		if isBlocks(len(lens)) {
			nBlocks += l
		} else {
			nOther += l
		}
		lens = append(lens, l)
		at += int64(8 + l)
		left -= 8 + l
	}
	blocks, other := make([]byte, nBlocks), make([]byte, nOther)
	at = off
	for k, l := range lens {
		buf := &other
		if isBlocks(k) {
			buf = &blocks
		}
		sec := (*buf)[:l:l]
		*buf = (*buf)[l:]
		if err := readAt(f, sec, at+8); err != nil {
			return nil, nil, err
		}
		binary.LittleEndian.PutUint64(word[:], l)
		*sum = crc32.Update(*sum, crc32.IEEETable, word[:])
		*sum = crc32.Update(*sum, crc32.IEEETable, sec)
		secs = append(secs, sec)
		at += int64(8 + l)
	}
	tail = make([]byte, left)
	if err := readAt(f, tail, at); err != nil {
		return nil, nil, err
	}
	*sum = crc32.Update(*sum, crc32.IEEETable, tail)
	return secs, tail, nil
}

// readAt reads len(b) bytes at offset at of f; a short read means the file
// shrank after its size was checked.
func readAt(f *os.File, b []byte, at int64) error {
	if _, err := f.ReadAt(b, at); err != nil {
		return fmt.Errorf("%w: reading payload: %v", ErrTruncated, err)
	}
	return nil
}
