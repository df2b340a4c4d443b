package server

import (
	"runtime"
	"sync"
	"testing"

	"steins/securemem"
)

// waitAccepted yields until the tenant has admitted n requests.
func waitAccepted(tn *Tenant, n uint64) {
	for tn.Admission().Accepted < n {
		runtime.Gosched()
	}
}

// TestPausedCallersCompleteAfterUnpause pins liveness across a pause: K
// callers blocked in Do on a paused tenant — no window may start, so none
// of them can combine — all complete once the tenant is unpaused, and
// every operation applied.
func TestPausedCallersCompleteAfterUnpause(t *testing.T) {
	const k = 12
	p, err := NewPool(Config{RecordLog: true, Tenants: []TenantConfig{{
		Name: "alpha", Scheme: securemem.SteinsSC, PGs: 2, PoolBytes: 2 * 64 * 64, BatchOps: 5,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tn := p.Tenant("alpha")
	tn.setPaused(true)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			specs := []OpSpec{
				{IsWrite: true, Addr: uint64(g) * securemem.BlockSize, Data: testBlock(byte(g))},
				{Addr: uint64(g) * securemem.BlockSize},
			}
			res, aerr := p.Do("alpha", specs)
			if aerr != nil {
				t.Errorf("caller %d rejected: %v", g, aerr)
				return
			}
			if res[1].Err != nil || res[1].Data != specs[0].Data {
				t.Errorf("caller %d read back %x… (err %v), wrote %x…", g, res[1].Data[:4], res[1].Err, specs[0].Data[:4])
			}
		}(g)
	}
	waitAccepted(tn, k)
	if adm := tn.Admission(); adm.Batches != 0 || adm.QueueDepth != 2*k {
		t.Fatalf("paused tenant applied work: %+v", adm)
	}
	tn.setPaused(false)
	wg.Wait()
	adm := tn.Admission()
	if adm.QueueDepth != 0 || adm.InFlight != 0 {
		t.Fatalf("unpaused tenant not quiesced: %+v", adm)
	}
	if want := uint64((2*k + 4) / 5); adm.Batches != want {
		t.Fatalf("%d ops in windows of 5 took %d windows, want %d", 2*k, adm.Batches, want)
	}
	replayLog(t, tn.Log())
}

// TestDrainRacesCombiners pins that Drain, racing callers that combine
// each other's windows, returns with the queue empty and nothing in
// flight, that every admitted request completed, and that the log still
// linearizes.
func TestDrainRacesCombiners(t *testing.T) {
	p, err := NewPool(Config{RecordLog: true, Tenants: []TenantConfig{{
		Name: "alpha", Scheme: securemem.SteinsGC, PGs: 3, PoolBytes: 3 * 64 * 64, BatchOps: 3,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	tn := p.Tenant("alpha")
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				specs := make([]OpSpec, 1+i%3)
				for j := range specs {
					specs[j] = OpSpec{IsWrite: (i+j)%2 == 0, Addr: uint64((g*7+i+j)%192) * securemem.BlockSize}
					specs[j].Data[0], specs[j].Data[1] = byte(g), byte(i)
				}
				res, aerr := p.Do("alpha", specs)
				if aerr != nil {
					if aerr.Status == 503 {
						return
					}
					if aerr.Status != 429 {
						t.Errorf("caller %d: %v", g, aerr)
						return
					}
					continue
				}
				for j := range res {
					if res[j].Err != nil {
						t.Errorf("caller %d op: %v", g, res[j].Err)
					}
				}
			}
		}(g)
	}
	waitAccepted(tn, 4*callers)
	p.Drain()
	adm := tn.Admission()
	if adm.QueueDepth != 0 || adm.InFlight != 0 {
		t.Fatalf("Drain returned with work pending: %+v", adm)
	}
	wg.Wait()
	adm = tn.Admission()
	if adm.Offered != adm.Accepted+adm.Rejected || adm.RejectedDraining == 0 {
		t.Fatalf("ledger after drain: %+v", adm)
	}
	replayLog(t, tn.Log())
}

// TestWindowCompletesEveryOwner pins that one combiner's window completes
// the requests of every owner it holds ops of, whether the window holds
// whole requests or splits them across windows.
func TestWindowCompletesEveryOwner(t *testing.T) {
	for _, tc := range []struct {
		name     string
		batchOps int
		windows  uint64
	}{
		{"one-window", 16, 1},
		{"split-requests", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(Config{RecordLog: true, Tenants: []TenantConfig{{
				Name: "alpha", Scheme: securemem.SteinsSC, PGs: 2, Channels: 2,
				PoolBytes: 2 * 64 * 64, BatchOps: tc.batchOps,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			tn := p.Tenant("alpha")
			tn.setPaused(true)
			const owners = 3
			var wg sync.WaitGroup
			for g := 0; g < owners; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					specs := make([]OpSpec, 3)
					for j := range specs {
						specs[j] = OpSpec{IsWrite: true, Addr: uint64(3*g+j) * securemem.BlockSize,
							Data: testBlock(byte(3*g + j))}
					}
					res, aerr := p.Do("alpha", specs)
					if aerr != nil {
						t.Errorf("owner %d rejected: %v", g, aerr)
						return
					}
					for j := range res {
						if res[j].Err != nil || res[j].Addr != specs[j].Addr {
							t.Errorf("owner %d op %d: %+v", g, j, res[j])
						}
					}
				}(g)
			}
			waitAccepted(tn, owners)
			tn.setPaused(false)
			wg.Wait()
			if adm := tn.Admission(); adm.Batches != tc.windows || adm.InFlight != 0 {
				t.Fatalf("9 ops in windows of %d: %+v, want %d windows", tc.batchOps, adm, tc.windows)
			}
			ref := replayLog(t, tn.Log())
			for addr, want := range ref {
				res, aerr := p.Do("alpha", []OpSpec{{Addr: addr}})
				if aerr != nil || res[0].Err != nil || res[0].Data != want {
					t.Fatalf("read back %#x: %v / %+v", addr, aerr, res)
				}
			}
		})
	}
}
