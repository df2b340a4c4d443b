//go:build !race

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"steins/securemem"
)

// TestServePathAllocCeilings holds the warm served path to its
// allocation ceilings: a single-op Pool.Do allocates only its results,
// and a 64-op POST /batch and a PUT through httptest allocate what
// net/http and the recorder need plus the reply headers. The race
// detector's instrumentation allocates, so raced builds leave this test
// out.
func TestServePathAllocCeilings(t *testing.T) {
	p, err := NewPool(Config{Tenants: []TenantConfig{{
		Name: "alpha", Scheme: securemem.SteinsSC, PGs: 2, Channels: 2, PoolBytes: 2 * 64 * 64,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	spec := []OpSpec{{IsWrite: true, Addr: 64, Data: testBlock(1)}}
	do := func() {
		if _, aerr := p.Do("alpha", spec); aerr != nil {
			t.Fatal(aerr)
		}
	}
	batch, _ := clientBatchBody(64)
	block := testBlock(2)
	h := p.Handler()
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"Pool.Do", 1, do},
		{"POST /batch", 12, serveOnce(t, h, http.MethodPost, "/v1/tenants/alpha/batch", batch, http.StatusOK)},
		{"PUT", 6, serveOnce(t, h, http.MethodPut, "/v1/tenants/alpha/blocks/128", block[:], http.StatusNoContent)},
	} {
		for i := 0; i < 10; i++ { // warm the free list and scratch pool
			tc.run()
		}
		if allocs := testing.AllocsPerRun(200, tc.run); allocs > tc.ceiling {
			t.Errorf("warm %s allocates %.1f times per request, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// serveOnce returns a function that serves one request with body through
// h into a fresh recorder and checks the status. The request itself is
// built once and its body rewound, so only serving is counted.
func serveOnce(t *testing.T, h http.Handler, method, target string, body []byte, status int) func() {
	r := bytes.NewReader(body)
	req := httptest.NewRequest(method, target, nil)
	req.Body = io.NopCloser(r)
	return func() {
		r.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != status {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
		}
	}
}
