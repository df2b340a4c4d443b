package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"steins/securemem"
)

// refDecodeBatch is the reference /batch decoder: encoding/json over the
// body, then the per-op checks, exactly as the handler decoded every body
// before the one-pass parser existed.
func refDecodeBatch(body []byte) ([]OpSpec, string) {
	var b struct {
		Ops []BatchOp `json:"ops"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&b); err != nil {
		return nil, fmt.Sprintf("bad batch body: %v", err)
	}
	specs := make([]OpSpec, len(b.Ops))
	for i, bo := range b.Ops {
		switch bo.Op {
		case "write":
			raw, err := base64.StdEncoding.DecodeString(bo.Data)
			if err != nil || len(raw) != securemem.BlockSize {
				return nil, fmt.Sprintf("op %d: data must be base64 of exactly %d bytes", i, securemem.BlockSize)
			}
			specs[i].IsWrite = true
			copy(specs[i].Data[:], raw)
		case "read":
			if bo.Data != "" {
				return nil, fmt.Sprintf("op %d: read carries data", i)
			}
		default:
			return nil, fmt.Sprintf("op %d: unknown op %q (want write or read)", i, bo.Op)
		}
		specs[i].Addr = bo.Addr
	}
	return specs, ""
}

// refBatchReply is the reference /batch reply: the results converted and
// written by json.NewEncoder(w).Encode, as the handler wrote every reply
// before appendBatchReply existed.
func refBatchReply(ops []OpResult) []byte {
	results := make([]BatchResult, len(ops))
	for i := range ops {
		if ops[i].Err != nil {
			results[i].Error = ops[i].Err.Error()
			continue
		}
		results[i].OK = true
		if !ops[i].IsWrite {
			results[i].Data = base64.StdEncoding.EncodeToString(ops[i].Data[:])
		}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(struct {
		Results []BatchResult `json:"results"`
	}{results})
	return buf.Bytes()
}

// testBlock is a block whose bytes depend on seed.
func testBlock(seed byte) securemem.Block {
	var b securemem.Block
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

// clientBatchBody is a /batch body as the benchmark client writes it:
// writes at even indexes, reads at odd ones.
func clientBatchBody(n int) ([]byte, []OpSpec) {
	b := []byte(`{"ops":[`)
	var specs []OpSpec
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		s := OpSpec{IsWrite: i%2 == 0, Addr: uint64(i) * securemem.BlockSize}
		if s.IsWrite {
			s.Data = testBlock(byte(i))
			b = append(b, `{"op":"write","addr":`...)
			b = strconv.AppendUint(b, s.Addr, 10)
			b = append(b, `,"data":"`...)
			b = base64.StdEncoding.AppendEncode(b, s.Data[:])
			b = append(b, `"}`...)
		} else {
			b = append(b, `{"op":"read","addr":`...)
			b = strconv.AppendUint(b, s.Addr, 10)
			b = append(b, '}')
		}
		specs = append(specs, s)
	}
	return append(b, "]}"...), specs
}

// FuzzBatchBody holds the production /batch decoder to the reference on
// every body: the same accept/reject verdict, the same operations and
// the same 400 message.
func FuzzBatchBody(f *testing.F) {
	blk := testBlock(3)
	b64 := base64.StdEncoding.EncodeToString(blk[:])
	client, _ := clientBatchBody(5)
	for _, seed := range []string{
		string(client),
		// Whitespace, reordered and duplicate keys.
		" \t\n{ \"ops\" :\r[ { \"op\" : \"read\" , \"addr\" : 64 } ,\n{\"addr\":0,\"op\":\"write\",\"data\":\"" + b64 + "\"} ] }\r\n",
		`{"ops":[{"data":"` + b64 + `","addr":128,"op":"write"}]}`,
		`{"ops":[{"op":"read","op":"write","addr":0,"data":"` + b64 + `"}]}`,
		`{"ops":[{"op":"read","addr":64,"addr":128}]}`,
		`{"ops":[{"op":"write","addr":64,"data":"` + b64 + `"}],"ops":[{"op":"read","addr":0}]}`,
		// A bare string, case-variant keys and unknown fields.
		`"write"`,
		`{"OPS":[{"op":"read","addr":0}]}`,
		`{"ops":[{"OP":"read","Addr":64}]}`,
		`{"ops":[{"op":"read","addr":0,"extra":[1,{"x":null}]}],"more":true}`,
		// null, trailing bytes and an object where the array belongs.
		`null`,
		`{"ops":null}`,
		`{"ops":[null]}`,
		`{"ops":[{"op":"read","addr":0}]}trailing garbage`,
		`{"ops":[{"op":"read","addr":0}]} {"ops":[]}`,
		`{"ops":{}}`,
		// Number forms.
		`{"ops":[{"op":"read","addr":1e3}]}`,
		`{"ops":[{"op":"read","addr":-1}]}`,
		`{"ops":[{"op":"read","addr":0064}]}`,
		`{"ops":[{"op":"read","addr":18446744073709551616}]}`,
		`{"ops":[{"op":"read","addr":18446744073709551615}]}`,
		`{"ops":[{"op":"read","addr":64.0}]}`,
		// Base64 lengths and padding; a read carrying data.
		`{"ops":[{"op":"write","addr":0,"data":"` + b64[:87] + `"}]}`,
		`{"ops":[{"op":"write","addr":0,"data":"` + b64 + `A"}]}`,
		`{"ops":[{"op":"write","addr":0,"data":"` + strings.TrimRight(b64, "=") + `"}]}`,
		`{"ops":[{"op":"write","addr":0,"data":"` + strings.Repeat("A", 88) + `"}]}`,
		`{"ops":[{"op":"write","addr":0}]}`,
		`{"ops":[{"op":"read","addr":0,"data":""}]}`,
		`{"ops":[{"op":"read","addr":0,"data":"` + b64 + `"}]}`,
		// Escapes, empty and truncated bodies, an unknown op.
		`{"ops":[{"o\u0070":"read","addr":0}]}`,
		`{"ops":[{"op":"wr\u0069te","addr":0,"data":"\/` + b64[2:] + `"}]}`,
		``,
		`{}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"re`,
		`{"ops":[{"op":"read","addr":0},]}`,
		`{"ops":[{"op":"erase","addr":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantMsg := refDecodeBatch(body)
		r := bytes.NewReader(body)
		got, gotMsg := decodeBatch(readBody(r, nil), r, nil)
		if gotMsg != wantMsg {
			t.Fatalf("body %q: message %q, reference %q", body, gotMsg, wantMsg)
		}
		if wantMsg == "" && !slices.Equal(got, want) {
			t.Fatalf("body %q: decoded %+v, reference %+v", body, got, want)
		}
	})
}

// TestParseBatchTakesClientShape pins that the bodies clients send take
// the one-pass parser, not the encoding/json fallback, and decode to the
// operations they encode.
func TestParseBatchTakesClientShape(t *testing.T) {
	for _, n := range []int{1, 2, 64} {
		body, want := clientBatchBody(n)
		got, ok := parseBatch(body, nil)
		if !ok {
			t.Fatalf("%d-op client body fell back to encoding/json", n)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d-op client body decoded to %+v, want %+v", n, got, want)
		}
	}
}

// TestBatchReplyBytes holds the /batch reply writer to the bytes
// json.NewEncoder wrote, including the escaping of per-op error text.
func TestBatchReplyBytes(t *testing.T) {
	read := OpResult{Addr: 64, Data: testBlock(9)}
	write := OpResult{IsWrite: true, Addr: 128, Data: testBlock(4)}
	fail := func(msg string) OpResult { return OpResult{Addr: 192, Err: errors.New(msg)} }
	for name, res := range map[string][]OpResult{
		"read":           {read},
		"write":          {write},
		"zero block":     {{}},
		"mixed":          {read, write, read, fail("integrity: tag mismatch"), write},
		"quote":          {fail(`tag "x" mismatch`)},
		"backslash":      {fail(`path a\b`)},
		"html":           {fail("<script>&amp;</script>")},
		"line separator": {fail("a\u2028b\u2029c")},
		"invalid utf-8":  {fail("bad \xff\xfe byte"), read},
		"control":        {fail("nul\x00 bell\x07 tab\t nl\n cr\r bs\b ff\f us\x1f del\x7f")},
		"empty error":    {fail(""), write},
		"empty":          {},
	} {
		got := appendBatchReply(nil, res)
		if want := refBatchReply(res); !bytes.Equal(got, want) {
			t.Errorf("%s: reply\n%q\nwant\n%q", name, got, want)
		}
	}
}
