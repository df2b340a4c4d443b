package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"steins/securemem"
)

// The POST /batch codec. Bodies in the shape clients send are parsed in
// one pass without reflection; every other body goes through
// encoding/json, which alone decides what is malformed and how the 400
// says so. Replies are appended into one buffer, byte-identical to
// json.NewEncoder(w).Encode of the results.

// scratch is one request's reusable storage. A /batch request reads its
// body into buf and later appends the reply there; a point request moves
// its block through block, whose byte past the block tells an oversized
// PUT body from an exact one.
type scratch struct {
	buf     []byte
	specs   []OpSpec
	results []OpResult
	block   [securemem.BlockSize + 1]byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

const (
	// maxPooledBuf and maxPooledOps bound what putScratch keeps, so one
	// outsized batch does not pin its buffers for the process's life.
	maxPooledBuf = 64 << 10
	maxPooledOps = DefaultMaxQueuedOps
	// maxBufferedBody bounds how much of a body is read up front; the
	// rest, if any, is left to the encoding/json decoder.
	maxBufferedBody = 1 << 20
)

func putScratch(sc *scratch) {
	if cap(sc.buf) <= maxPooledBuf && cap(sc.specs) <= maxPooledOps && cap(sc.results) <= maxPooledOps {
		scratchPool.Put(sc)
	}
}

// readBody appends r to buf until EOF, a read error or maxBufferedBody
// bytes. A read error is left for the decoder to meet again on r.
func readBody(r io.Reader, buf []byte) []byte {
	for len(buf) < maxBufferedBody {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxBufferedBody)])
		buf = buf[:len(buf)+n]
		if err != nil {
			break
		}
	}
	return buf
}

// decodeBatch decodes a /batch body whose first bytes are buffered and
// whose unread remainder is rest, appending the operations to specs. A
// non-empty message is the 400 to answer with.
func decodeBatch(buffered []byte, rest io.Reader, specs []OpSpec) ([]OpSpec, string) {
	specs, ok := parseBatch(buffered, specs)
	if ok {
		return specs, ""
	}
	return decodeBatchJSON(io.MultiReader(bytes.NewReader(buffered), rest), specs[:0])
}

// decodeBatchJSON decodes a /batch body with encoding/json: the path for
// every body parseBatch declines, and the source of every 400 message.
func decodeBatchJSON(r io.Reader, specs []OpSpec) ([]OpSpec, string) {
	var body struct {
		Ops []BatchOp `json:"ops"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		return specs, fmt.Sprintf("bad batch body: %v", err)
	}
	for i, bo := range body.Ops {
		s := OpSpec{Addr: bo.Addr}
		switch bo.Op {
		case "write":
			raw, err := base64.StdEncoding.DecodeString(bo.Data)
			if err != nil || len(raw) != securemem.BlockSize {
				return specs, fmt.Sprintf("op %d: data must be base64 of exactly %d bytes", i, securemem.BlockSize)
			}
			s.IsWrite = true
			copy(s.Data[:], raw)
		case "read":
			if bo.Data != "" {
				return specs, fmt.Sprintf("op %d: read carries data", i)
			}
		default:
			return specs, fmt.Sprintf("op %d: unknown op %q (want write or read)", i, bo.Op)
		}
		specs = append(specs, s)
	}
	return specs, ""
}

// parseBatch parses {"ops":[{"op":"write"|"read","addr":N,"data":"…"},…]}
// — keys in any order, addr and (for reads) data optional, JSON
// whitespace, a repeated key's last value, bytes after the closing brace
// ignored as the streaming decoder ignores them — appending to specs. It
// reports false for anything else: unknown or case-variant keys, a second
// "ops", escapes, other value types or number forms, and data that is not
// the 88-character padded base64 of one block (or, for a read, absent or
// ""). Every body it accepts decodes to the same operations through
// decodeBatchJSON.
func parseBatch(b []byte, specs []OpSpec) ([]OpSpec, bool) {
	c := cursor{b: b}
	if !c.lit('{') || string(c.key()) != "ops" || !c.lit('[') {
		return specs, false
	}
	if !c.lit(']') {
		for {
			specs = append(specs, OpSpec{})
			if !c.op(&specs[len(specs)-1]) {
				return specs, false
			}
			if c.lit(']') {
				break
			}
			if !c.lit(',') {
				return specs, false
			}
		}
	}
	return specs, c.lit('}')
}

// cursor walks a JSON body for parseBatch.
type cursor struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (c *cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// lit skips whitespace and consumes ch if it comes next.
func (c *cursor) lit(ch byte) bool {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// str consumes a string without escapes or control bytes and returns its
// contents.
func (c *cursor) str() ([]byte, bool) {
	if !c.lit('"') {
		return nil, false
	}
	for start := c.i; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch == '\\' || ch < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object key and its colon; nil if there is none.
func (c *cursor) key() []byte {
	k, ok := c.str()
	if !ok || !c.lit(':') {
		return nil
	}
	return k
}

// uint consumes a JSON integer that fits a uint64: no sign, fraction,
// exponent or leading zero.
func (c *cursor) uint() (uint64, bool) {
	c.ws()
	start := c.i
	var v uint64
	for ; c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9'; c.i++ {
		d := uint64(c.b[c.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := c.i - start
	return v, n == 1 || n > 1 && c.b[start] != '0'
}

// op consumes one operation object into s.
func (c *cursor) op(s *OpSpec) bool {
	if !c.lit('{') {
		return false
	}
	// A repeated key overwrites, as in encoding/json.
	var kind, data []byte
	for {
		ok := false
		switch string(c.key()) {
		case "op":
			kind, ok = c.str()
		case "addr":
			s.Addr, ok = c.uint()
		case "data":
			data, ok = c.str()
		}
		if !ok {
			return false
		}
		if c.lit('}') {
			break
		}
		if !c.lit(',') {
			return false
		}
	}
	switch string(kind) {
	case "write":
		// 64 bytes encode to 86 characters and "=="; checking the
		// padding first also keeps Decode inside the 64-byte block.
		if len(data) != 88 || data[86] != '=' || data[87] != '=' {
			return false
		}
		n, err := base64.StdEncoding.Decode(s.Data[:], data)
		s.IsWrite = true
		return err == nil && n == securemem.BlockSize
	case "read":
		return len(data) == 0
	}
	return false
}

// appendBatchReply appends the /batch reply for res: the bytes
// json.NewEncoder(w).Encode(struct{Results []BatchResult}) writes,
// trailing newline included.
func appendBatchReply(b []byte, res []OpResult) []byte {
	b = append(b, `{"results":[`...)
	for i := range res {
		if i > 0 {
			b = append(b, ',')
		}
		switch r := &res[i]; {
		case r.Err != nil:
			b = append(b, `{"ok":false`...)
			if msg := r.Err.Error(); msg != "" {
				// Rare, so encoding/json's own string escaping (HTML
				// characters, U+2028/9, invalid UTF-8) is worth its cost.
				q, _ := json.Marshal(msg)
				b = append(append(b, `,"error":`...), q...)
			}
			b = append(b, '}')
		case r.IsWrite:
			b = append(b, `{"ok":true}`...)
		default:
			b = append(b, `{"ok":true,"data":"`...)
			b = base64.StdEncoding.AppendEncode(b, r.Data[:])
			b = append(b, `"}`...)
		}
	}
	return append(b, "]}\n"...)
}
