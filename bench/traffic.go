package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"steins/internal/server"
	"steins/internal/trace"
	"steins/securemem"
)

// clients is the number of load-generating goroutines (and connections):
// nproc of the 2-core machine the benchmark was calibrated on.
const clients = 2

// tenantName is the one tenant every benchmark pool serves.
const tenantName = "bench"

// op is one pregenerated client operation: a global 64 B line index and a
// write flag, packed so long streams stay small.
type op uint64

func mkOp(line uint64, write bool) op {
	o := op(line << 1)
	if write {
		o |= 1
	}
	return o
}

func (o op) line() uint64 { return uint64(o) >> 1 }
func (o op) addr() uint64 { return o.line() * securemem.BlockSize }
func (o op) write() bool  { return o&1 == 1 }

// blockFor is version ver of the block at addr. Version 0 is the zero
// block a never-written address reads as; every acknowledged write carries
// a fresh version, so a stale or misplaced read cannot pass the check.
func blockFor(seed, addr uint64, ver uint32) securemem.Block {
	var b securemem.Block
	if ver == 0 {
		return b
	}
	binary.LittleEndian.PutUint64(b[0:], addr)
	binary.LittleEndian.PutUint64(b[8:], uint64(ver))
	binary.LittleEndian.PutUint64(b[16:], seed)
	x := addr ^ uint64(ver)<<40 ^ seed
	for i := 24; i < len(b); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// clientStreams pregenerates each client's n-op stream from prof, whose
// footprint is one client's share. Client c owns the global lines
// congruent to c modulo the client count, so clients never share a key and
// each can check its reads against its own shadow.
func clientStreams(prof trace.Profile, seed uint64, n int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		g := trace.New(prof, splitmix(seed)+uint64(c), n)
		s := make([]op, 0, n)
		for {
			o, ok := g.Next()
			if !ok {
				break
			}
			s = append(s, mkOp(o.Addr/securemem.BlockSize*clients+uint64(c), o.IsWrite))
		}
		out[c] = s
	}
	return out
}

// reqOp is one operation of a request as a rung receives it.
type reqOp struct {
	addr  uint64
	write bool
	data  securemem.Block
}

// errFailed marks an operation the system refused or failed (a 429, 409,
// 5xx, transport or engine error), as opposed to one it answered wrongly.
var errFailed = errors.New("operation failed")

// A rung is one layer's public entry point, driven one request at a time.
// do applies req in order and fills got[i] for every read.
type rung interface {
	do(req []reqOp, got []securemem.Block) error
}

// client replays one pregenerated stream in requests of reqOps operations,
// closed loop, and checks every read against a golden shadow: the last
// acknowledged write's version, or 0 (the zero block) if none.
type client struct {
	id     int
	seed   uint64
	ops    []op
	pos    int
	writes uint32   // versions this client has issued
	shadow []uint32 // per owned line (global line / clients)
	req    []reqOp
	vers   []uint32 // version of each req write
	got    []securemem.Block
}

// newClient builds client id over ops; every owned line of a poolBytes
// pool starts at version base (1 after a prefill, 0 on a fresh pool).
func newClient(id int, seed uint64, ops []op, reqOps int, poolBytes uint64, base uint32) *client {
	c := &client{
		id: id, seed: seed, ops: ops,
		shadow: make([]uint32, poolBytes/securemem.BlockSize/clients+1),
		req:    make([]reqOp, reqOps),
		vers:   make([]uint32, reqOps),
		got:    make([]securemem.Block, reqOps),
		writes: 1, // version 1 is the prefill's
	}
	for i := range c.shadow {
		c.shadow[i] = base
	}
	return c
}

// next fills the next request from the stream, wrapping at its end.
func (c *client) next() []reqOp {
	for i := range c.req {
		o := c.ops[c.pos]
		c.pos++
		if c.pos == len(c.ops) {
			c.pos = 0
		}
		r := &c.req[i]
		r.addr, r.write = o.addr(), o.write()
		if r.write {
			c.writes++
			c.vers[i] = c.writes
			r.data = blockFor(c.seed, r.addr, c.writes)
		}
	}
	return c.req
}

// check validates an acknowledged request: every read must return the
// shadow's block, and every write becomes the line's new version.
func (c *client) check(req []reqOp) error {
	for i := range req {
		k := req[i].addr / securemem.BlockSize / clients
		if req[i].write {
			c.shadow[k] = c.vers[i]
			continue
		}
		if want := blockFor(c.seed, req[i].addr, c.shadow[k]); c.got[i] != want {
			return fmt.Errorf("client %d: read %#x returned a block that is not version %d (the last acknowledged write)",
				c.id, req[i].addr, c.shadow[k])
		}
	}
	return nil
}

// step issues one request on r and checks it. A refused or failed request
// returns an error wrapping errFailed; a wrong answer any other error.
func (c *client) step(r rung) (req []reqOp, err error) {
	req = c.next()
	if err := r.do(req, c.got); err != nil {
		return req, err
	}
	return req, c.check(req)
}

// httpRung drives the HTTP surface securememd serves, over one keep-alive
// connection.
type httpRung struct {
	root string // http://host:port
	base string // root + /v1/tenants/<tenant>
	hc   *http.Client
	body bytes.Buffer
	buf  []byte // scratch for the URL or the batch body
}

func newHTTPRung(addr string) *httpRung {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	root := "http://" + addr
	return &httpRung{root: root, base: root + "/v1/tenants/" + tenantName, hc: &http.Client{Transport: tr}}
}

// warm opens the rung's connection with a health check.
func (h *httpRung) warm() error {
	_, err := h.send(http.MethodGet, h.root+"/healthz", nil)
	return err
}

func (h *httpRung) close() { h.hc.CloseIdleConnections() }

func (h *httpRung) do(req []reqOp, got []securemem.Block) error {
	if len(req) == 1 {
		return h.point(&req[0], &got[0])
	}
	return h.batch(req, got)
}

// send issues one request and returns the body of a 2xx answer, valid
// until the next send.
func (h *httpRung) send(method, url string, body []byte) ([]byte, error) {
	hr, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := h.hc.Do(hr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s %s: %v", errFailed, method, url, err)
	}
	defer resp.Body.Close()
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%w: %s %s: status %d: %s", errFailed, method, url, resp.StatusCode, bytes.TrimSpace(h.body.Bytes()))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s %s: body: %v", errFailed, method, url, err)
	}
	return h.body.Bytes(), nil
}

func (h *httpRung) point(r *reqOp, got *securemem.Block) error {
	h.buf = strconv.AppendUint(append(append(h.buf[:0], h.base...), "/blocks/"...), r.addr, 10)
	if r.write {
		_, err := h.send(http.MethodPut, string(h.buf), r.data[:])
		return err
	}
	body, err := h.send(http.MethodGet, string(h.buf), nil)
	if err != nil {
		return err
	}
	if len(body) != securemem.BlockSize {
		return fmt.Errorf("GET %#x: %d-byte body, want %d", r.addr, len(body), securemem.BlockSize)
	}
	copy(got[:], body)
	return nil
}

// batchResults is the POST /batch reply.
type batchResults struct {
	Results []server.BatchResult `json:"results"`
}

func (h *httpRung) batch(req []reqOp, got []securemem.Block) error {
	b := append(h.buf[:0], `{"ops":[`...)
	for i := range req {
		if i > 0 {
			b = append(b, ',')
		}
		if req[i].write {
			b = append(b, `{"op":"write","addr":`...)
			b = strconv.AppendUint(b, req[i].addr, 10)
			b = append(b, `,"data":"`...)
			b = base64.StdEncoding.AppendEncode(b, req[i].data[:])
			b = append(b, `"}`...)
		} else {
			b = append(b, `{"op":"read","addr":`...)
			b = strconv.AppendUint(b, req[i].addr, 10)
			b = append(b, '}')
		}
	}
	h.buf = append(b, "]}"...)
	body, err := h.send(http.MethodPost, h.base+"/batch", h.buf)
	if err != nil {
		return err
	}
	var res batchResults
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("POST /batch: decode reply: %v", err)
	}
	if len(res.Results) != len(req) {
		return fmt.Errorf("POST /batch: %d results for %d ops", len(res.Results), len(req))
	}
	for i, r := range res.Results {
		if !r.OK {
			return fmt.Errorf("%w: POST /batch op %d (%#x): %s", errFailed, i, req[i].addr, r.Error)
		}
		if req[i].write {
			continue
		}
		n, err := base64.StdEncoding.Decode(got[i][:], []byte(r.Data))
		if err != nil || n != securemem.BlockSize {
			return fmt.Errorf("POST /batch op %d: read data is not base64 of %d bytes", i, securemem.BlockSize)
		}
	}
	return nil
}

// poolRung drives server.Pool.Do, the Go serving API under the handlers.
type poolRung struct {
	p     *server.Pool
	specs []server.OpSpec
}

func (pr *poolRung) do(req []reqOp, got []securemem.Block) error {
	pr.specs = pr.specs[:0]
	for i := range req {
		pr.specs = append(pr.specs, server.OpSpec{IsWrite: req[i].write, Addr: req[i].addr, Data: req[i].data})
	}
	res, aerr := pr.p.Do(tenantName, pr.specs)
	if aerr != nil {
		return fmt.Errorf("%w: Pool.Do: %v", errFailed, aerr)
	}
	for i := range res {
		if res[i].Err != nil {
			return fmt.Errorf("%w: Pool.Do op %d (%#x): %v", errFailed, i, req[i].addr, res[i].Err)
		}
		got[i] = res[i].Data
	}
	return nil
}

// servePool is a pool behind a loopback HTTP server in this process: the
// handler securememd serves, reached over real TCP connections.
type servePool struct {
	pool *server.Pool
	srv  *http.Server
	addr string
	done chan error
}

func startServer(pool *server.Pool) (*servePool, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &servePool{pool: pool, srv: &http.Server{Handler: pool.Handler()}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, waits for its serve loop, then drains and
// stops the pool.
func (s *servePool) close() {
	s.srv.Close()
	<-s.done
	s.pool.Close()
}

// prefill writes version 1 of every line of the pool through Pool.Do, in
// requests of 128 writes, and returns how many requests it sent.
func prefill(p *server.Pool, seed, poolBytes uint64) (requests uint64, err error) {
	const per = 128
	pr := &poolRung{p: p}
	req := make([]reqOp, 0, per)
	got := make([]securemem.Block, per)
	for a := uint64(0); a < poolBytes; a += securemem.BlockSize {
		req = append(req, reqOp{addr: a, write: true, data: blockFor(seed, a, 1)})
		if len(req) == per || a+securemem.BlockSize == poolBytes {
			requests++
			if err := pr.do(req, got); err != nil {
				return requests, fmt.Errorf("prefill: %w", err)
			}
			req = req[:0]
		}
	}
	return requests, nil
}
