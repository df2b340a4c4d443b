package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"steins/securemem"
)

// Handler returns the pool's HTTP surface:
//
//	PUT  /v1/tenants/{tenant}/blocks/{addr}   raw 64-byte body → write
//	GET  /v1/tenants/{tenant}/blocks/{addr}   read → raw 64-byte body
//	POST /v1/tenants/{tenant}/batch           JSON op list, applied as one request
//	GET  /v1/tenants/{tenant}/stats           admission counters + per-PG engine stats
//	GET  /v1/tenants/{tenant}/recovery        last restart-recovery report
//	GET  /metrics                             per-tenant labeled metrics snapshots
//	GET  /healthz                             200 serving / 503 draining
//
// Admission rejections map to 429 with a Retry-After header (in-flight or
// queue bound) or 503 (draining); integrity violations on the served path
// map to 409, other engine errors to 500.
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{tenant}/blocks/{addr}", p.handleBlockPut)
	mux.HandleFunc("GET /v1/tenants/{tenant}/blocks/{addr}", p.handleBlockGet)
	mux.HandleFunc("POST /v1/tenants/{tenant}/batch", p.handleBatch)
	mux.HandleFunc("GET /v1/tenants/{tenant}/stats", p.handleStats)
	mux.HandleFunc("GET /v1/tenants/{tenant}/recovery", p.handleRecovery)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	return mux
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

func (p *Pool) writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(p.cfg.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// parseAddr accepts decimal or 0x-prefixed block addresses.
func parseAddr(s string) (uint64, error) {
	return strconv.ParseUint(s, 0, 64)
}

// engineStatus maps a served-path engine error to its HTTP status:
// integrity violations (tamper, replay, quarantined subtrees) are the
// client-visible 409 class, everything else is a server fault.
func engineStatus(err error) int {
	if errors.Is(err, securemem.ErrTamper) || errors.Is(err, securemem.ErrReplay) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

func (p *Pool) handleBlockPut(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r.PathValue("addr"))
	if err != nil {
		p.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad address: %v", err))
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer putScratch(sc)
	n, err := io.ReadFull(r.Body, sc.block[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		p.writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	if n != securemem.BlockSize {
		p.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("body must be exactly %d bytes, got %d", securemem.BlockSize, n))
		return
	}
	spec := [1]OpSpec{{IsWrite: true, Addr: addr, Data: securemem.Block(sc.block[:securemem.BlockSize])}}
	var res [1]OpResult
	if aerr := p.do(r.PathValue("tenant"), spec[:], res[:]); aerr != nil {
		p.writeError(w, aerr.Status, aerr.Reason)
		return
	}
	if res[0].Err != nil {
		p.writeError(w, engineStatus(res[0].Err), res[0].Err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (p *Pool) handleBlockGet(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r.PathValue("addr"))
	if err != nil {
		p.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad address: %v", err))
		return
	}
	spec := [1]OpSpec{{Addr: addr}}
	var res [1]OpResult
	if aerr := p.do(r.PathValue("tenant"), spec[:], res[:]); aerr != nil {
		p.writeError(w, aerr.Status, aerr.Reason)
		return
	}
	if res[0].Err != nil {
		p.writeError(w, engineStatus(res[0].Err), res[0].Err.Error())
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer putScratch(sc)
	copy(sc.block[:], res[0].Data[:])
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(sc.block[:securemem.BlockSize])
}

// BatchOp is one operation in a POST /batch body; Data is base64 and
// required for writes, absent for reads.
type BatchOp struct {
	Op   string `json:"op"` // "write" or "read"
	Addr uint64 `json:"addr"`
	Data string `json:"data,omitempty"`
}

// BatchResult is one operation's outcome; reads carry the block base64.
type BatchResult struct {
	OK    bool   `json:"ok"`
	Data  string `json:"data,omitempty"`
	Error string `json:"error,omitempty"`
}

func (p *Pool) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*scratch)
	defer putScratch(sc)
	sc.buf = readBody(r.Body, sc.buf[:0])
	specs, msg := decodeBatch(sc.buf, r.Body, sc.specs[:0])
	sc.specs = specs
	if msg != "" {
		p.writeError(w, http.StatusBadRequest, msg)
		return
	}
	sc.results = slices.Grow(sc.results[:0], len(specs))[:len(specs)]
	if aerr := p.do(r.PathValue("tenant"), specs, sc.results); aerr != nil {
		p.writeError(w, aerr.Status, aerr.Reason)
		return
	}
	sc.buf = appendBatchReply(sc.buf[:0], sc.results)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(sc.buf)))
	w.Write(sc.buf)
}

// TenantStatus is the GET /stats payload.
type TenantStatus struct {
	Tenant    string            `json:"tenant"`
	Scheme    string            `json:"scheme"`
	PGs       int               `json:"pgs"`
	Channels  int               `json:"channels"`
	Admission AdmissionStats    `json:"admission"`
	PGStats   []securemem.Stats `json:"pg_stats"`
}

func (p *Pool) handleStats(w http.ResponseWriter, r *http.Request) {
	t := p.tenants[r.PathValue("tenant")]
	if t == nil {
		p.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", r.PathValue("tenant")))
		return
	}
	writeJSON(w, TenantStatus{
		Tenant:    t.cfg.Name,
		Scheme:    string(t.cfg.Scheme),
		PGs:       t.cfg.PGs,
		Channels:  t.cfg.Channels,
		Admission: t.Admission(),
		PGStats:   t.PGStats(),
	})
}

func (p *Pool) handleRecovery(w http.ResponseWriter, r *http.Request) {
	t := p.tenants[r.PathValue("tenant")]
	if t == nil {
		p.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", r.PathValue("tenant")))
		return
	}
	rec := t.Recovery()
	if rec == nil {
		p.writeError(w, http.StatusNotFound, "no recovery has run")
		return
	}
	writeJSON(w, rec)
}

func (p *Pool) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, p.MetricsExport())
}

func (p *Pool) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if p.draining.Load() {
		p.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}
