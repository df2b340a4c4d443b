package trace

import (
	"testing"
)

func TestParseInterleaveRoundTrip(t *testing.T) {
	for _, iv := range []Interleave{InterleaveLine, InterleavePage, InterleaveHash} {
		got, err := ParseInterleave(iv.String())
		if err != nil || got != iv {
			t.Fatalf("ParseInterleave(%q) = %v, %v", iv.String(), got, err)
		}
	}
	if _, err := ParseInterleave("bogus"); err == nil {
		t.Fatal("ParseInterleave accepted junk")
	}
}

func TestShardBytesCoversEveryAddress(t *testing.T) {
	for _, iv := range []Interleave{InterleaveLine, InterleavePage} {
		for _, shards := range []int{1, 2, 3, 4, 7} {
			const dataBytes = 1 << 20
			sp := NewSplitter(nil, shards, iv)
			limit := ShardBytes(dataBytes, shards, iv)
			seen := make([]map[uint64]bool, shards)
			for i := range seen {
				seen[i] = make(map[uint64]bool)
			}
			for addr := uint64(0); addr < dataBytes; addr += 64 {
				shard, local := sp.Route(addr)
				if local >= limit {
					t.Fatalf("iv %s shards %d: local %#x beyond ShardBytes %#x", iv, shards, local, limit)
				}
				if local%64 != 0 {
					t.Fatalf("iv %s: line-aligned address routed to unaligned local %#x", iv, local)
				}
				if seen[shard][local] {
					t.Fatalf("iv %s shards %d: two global lines share shard %d local %#x", iv, shards, shard, local)
				}
				seen[shard][local] = true
			}
		}
	}
}

func TestRouteKeepsChunksTogether(t *testing.T) {
	// Every address inside one interleave chunk must land on the same
	// shard, contiguously: metadata derived from a line (counters, tree
	// branch) must live with the line.
	sp := NewSplitter(nil, 4, InterleavePage)
	baseShard, baseLocal := sp.Route(3 * 4096)
	for off := uint64(0); off < 4096; off += 64 {
		shard, local := sp.Route(3*4096 + off)
		if shard != baseShard || local != baseLocal+off {
			t.Fatalf("offset %#x left its chunk: shard %d local %#x", off, shard, local)
		}
	}
}

// TestHashRouteFirstTouchStable pins that hash routing is pure: an
// address's home depends on the address alone, not on which addresses a
// splitter routed before it, so splitters that saw the same addresses in
// different orders, and a fresh splitter per address, all agree.
func TestHashRouteFirstTouchStable(t *testing.T) {
	addrs := []uint64{0, 64, 128, 4096, 64, 0, 9999 * 64, 128, 5 * 64, 4097}
	fwd, rev := NewSplitter(nil, 3, InterleaveHash), NewSplitter(nil, 3, InterleaveHash)
	for i := len(addrs) - 1; i >= 0; i-- {
		rev.Route(addrs[len(addrs)-1-i])
	}
	for _, a := range addrs {
		shard, local := fwd.Route(a)
		rs, rl := rev.Route(a)
		fs, fl := NewSplitter(nil, 3, InterleaveHash).Route(a)
		if rs != shard || rl != local || fs != shard || fl != local {
			t.Fatalf("address %#x routes to (%d,%#x), (%d,%#x) after another order, (%d,%#x) on a fresh splitter",
				a, shard, local, rs, rl, fs, fl)
		}
	}
}

// TestRouteHashBalancedBijection pins the hash interleave's map at 1–8
// shards over region sizes that are not a multiple of the shard count:
// every line has exactly one (shard, local) home inside ShardBytes, the
// shards' line counts differ by at most one, a sub-line offset stays with
// its line, one shard is the identity, and a sweep with stride n — which
// line interleave would pin to one shard — reaches every shard.
func TestRouteHashBalancedBijection(t *testing.T) {
	for n := 1; n <= 8; n++ {
		sp := NewSplitter(nil, n, InterleaveHash)
		for _, lines := range []uint64{1, 7, 61, 1000, 3*64 + 5} {
			space := lines * 64
			limit := ShardBytes(space, n, InterleaveHash)
			counts := make([]uint64, n)
			owner := make(map[[2]uint64]uint64)
			for addr := uint64(0); addr < space; addr += 64 {
				shard, local := sp.Route(addr)
				if shard < 0 || shard >= n || local >= limit || local%64 != 0 {
					t.Fatalf("n=%d lines=%d: %#x routed to (%d,%#x), ShardBytes %#x", n, lines, addr, shard, local, limit)
				}
				home := [2]uint64{uint64(shard), local}
				if prev, dup := owner[home]; dup {
					t.Fatalf("n=%d lines=%d: %#x and %#x share shard %d local %#x", n, lines, prev, addr, shard, local)
				}
				owner[home] = addr
				counts[shard]++
				if s2, l2 := sp.Route(addr + 40); s2 != shard || l2 != local+40 {
					t.Fatalf("n=%d: offset 40 of %#x left its line: (%d,%#x)", n, addr, s2, l2)
				}
				if n == 1 && local != addr {
					t.Fatalf("one shard routes %#x to %#x, want the identity", addr, local)
				}
			}
			lo, hi := counts[0], counts[0]
			for _, c := range counts {
				lo, hi = min(lo, c), max(hi, c)
			}
			if hi-lo > 1 {
				t.Fatalf("n=%d lines=%d: shard line counts %v differ by more than one", n, lines, counts)
			}
		}
		for phase := uint64(0); phase < uint64(n); phase++ {
			hit := make(map[int]bool)
			for k := uint64(0); k < 64; k++ {
				shard, _ := sp.Route((k*uint64(n) + phase) * 64)
				hit[shard] = true
			}
			if n > 1 && len(hit) != n {
				t.Fatalf("n=%d: stride-%d sweep from line %d reaches %d shards, want %d", n, n, phase, len(hit), n)
			}
		}
	}
}

// TestNextEpochLocalClock pins the virtual-clock contract: per-shard local
// gaps telescope back to the global arrival times, matching what
// multi.System's advance() would hand each controller.
func TestNextEpochLocalClock(t *testing.T) {
	ops := []Op{
		{Addr: 0 * 64, IsWrite: true, Gap: 5},   // shard 0, t=5
		{Addr: 1 * 64, IsWrite: false, Gap: 3},  // shard 1, t=8
		{Addr: 2 * 64, IsWrite: true, Gap: 10},  // shard 0, t=18
		{Addr: 3 * 64, IsWrite: false, Gap: 1},  // shard 1, t=19
		{Addr: 0 * 64, IsWrite: false, Gap: 11}, // shard 0, t=30
	}
	sp := NewSplitter(NewReplay("clock", ops), 2, InterleaveLine)
	batches, n, err := sp.NextEpoch(len(ops))
	if err != nil || n != len(ops) {
		t.Fatalf("NextEpoch = %d, %v", n, err)
	}
	wantGaps := map[int][]uint64{0: {5, 13, 12}, 1: {8, 11}}
	for shard, gaps := range wantGaps {
		if len(batches[shard]) != len(gaps) {
			t.Fatalf("shard %d: %d ops, want %d", shard, len(batches[shard]), len(gaps))
		}
		for i, g := range gaps {
			if batches[shard][i].Gap != g {
				t.Fatalf("shard %d op %d: gap %d, want %d", shard, i, batches[shard][i].Gap, g)
			}
		}
	}
	if batches[0][1].GlobalAddr != 2*64 || batches[0][1].Index != 2 {
		t.Fatalf("shard 0 op 1 identity wrong: %+v", batches[0][1])
	}
}

func TestNextEpochBudgetAndExhaustion(t *testing.T) {
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Addr: uint64(i) * 64, IsWrite: true, Gap: 1}
	}
	sp := NewSplitter(NewReplay("budget", ops), 2, InterleaveLine)
	if _, n, _ := sp.NextEpoch(7); n != 7 {
		t.Fatalf("first epoch consumed %d, want 7", n)
	}
	if _, n, _ := sp.NextEpoch(7); n != 3 {
		t.Fatalf("second epoch consumed %d, want 3", n)
	}
	if _, n, _ := sp.NextEpoch(7); n != 0 {
		t.Fatalf("exhausted source yielded %d ops", n)
	}
	if sp.Emitted() != 10 {
		t.Fatalf("Emitted = %d, want 10", sp.Emitted())
	}
}

// TestNextEpochSteadyStateAllocs is the allocation ceiling for the sharded
// hot path: once the epoch buffers have grown, line/page splitting must
// stay off the heap entirely.
func TestNextEpochSteadyStateAllocs(t *testing.T) {
	ops := make([]Op, 4096)
	for i := range ops {
		ops[i] = Op{Addr: uint64(i%512) * 64, IsWrite: i%2 == 0, Gap: 3}
	}
	sp := NewSplitter(nil, 4, InterleaveLine)
	rep := NewReplay("alloc", ops)
	sp.Rebind(rep)
	if _, _, err := sp.NextEpoch(len(ops)); err != nil { // warm the buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		rep.Reset()
		if _, n, err := sp.NextEpoch(len(ops)); n != len(ops) || err != nil {
			t.Fatalf("epoch: %d, %v", n, err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state NextEpoch allocates %.1f objects per epoch, want 0", avg)
	}
}
