package trace

import (
	"encoding/binary"
	"testing"
)

// opsFromFuzz decodes an arbitrary byte string into a bounded operation
// stream: 5 bytes per op (4 address/flag bytes, 1 gap byte), addresses
// line-aligned within a 1 MiB space.
func opsFromFuzz(data []byte) []Op {
	const maxOps = 2048
	var ops []Op
	for len(data) >= 5 && len(ops) < maxOps {
		word := binary.LittleEndian.Uint32(data[:4])
		ops = append(ops, Op{
			Addr:    uint64(word%(1<<20/64)) * 64,
			IsWrite: word&(1<<31) != 0,
			Gap:     uint64(data[4]),
		})
		data = data[5:]
	}
	return ops
}

// checkRouteChunk is the oracle for the shared chunk arithmetic, checked
// against its definition rather than against another caller of it: the
// shard is in range, the local address fits the ShardBytes-sized slice of
// a space-byte global space, (shard, local) maps back to addr, and one
// shard is the identity.
func checkRouteChunk(t *testing.T, addr, space uint64) {
	t.Helper()
	for _, iv := range []Interleave{InterleaveLine, InterleavePage} {
		chunk := iv.ChunkBytes()
		for n := 1; n <= 8; n++ {
			shard, local := RouteChunk(addr, chunk, n)
			if shard < 0 || shard >= n {
				t.Fatalf("RouteChunk(%#x, %s, %d): shard %d out of range", addr, iv, n, shard)
			}
			if limit := ShardBytes(space, n, iv); local >= limit {
				t.Fatalf("RouteChunk(%#x, %s, %d): local %#x beyond shard size %#x", addr, iv, n, local, limit)
			}
			if back := ((local/chunk)*uint64(n)+uint64(shard))*chunk + local%chunk; back != addr {
				t.Fatalf("RouteChunk(%#x, %s, %d) = (%d, %#x) maps back to %#x", addr, iv, n, shard, local, back)
			}
			if n == 1 && (shard != 0 || local != addr) {
				t.Fatalf("RouteChunk(%#x, %s, 1) = (%d, %#x), want the identity", addr, iv, shard, local)
			}
		}
	}
}

// FuzzSplitterRoundTrip feeds arbitrary access streams through the
// splitter at several (shards, interleave) shapes and checks the
// split→merge round trip: no operation lost, none duplicated, identity
// fields preserved, routing consistent with Route, no two global lines
// aliased onto one local line, and local gaps telescoping back to the
// global arrival times. Every address (and a sub-line offset of it) also
// goes through the RouteChunk oracle at line and page interleave over
// 1–8 shards.
func FuzzSplitterRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0x40, 0, 0, 0x80, 5, 0x80, 0, 0, 0, 9, 0x40, 0, 0, 0x80, 0})
	seed := make([]byte, 0, 5*64)
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i*7), byte(i), 0, byte(i%3)<<6, byte(i%11))
	}
	f.Add(seed)
	// The last line of the space and the first lines of the last pages:
	// the ShardBytes bound is tight there.
	f.Add([]byte{0xff, 0x3f, 0, 0, 63, 0xc0, 0x3f, 0, 0x80, 1, 0x80, 0x3f, 0, 0, 40})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := opsFromFuzz(data)
		for _, op := range ops {
			checkRouteChunk(t, op.Addr, 1<<20)
			checkRouteChunk(t, op.Addr+op.Gap%64, 1<<20)
		}
		for _, tc := range []struct {
			shards int
			iv     Interleave
			epoch  int
		}{
			{1, InterleaveLine, 64},
			{4, InterleaveLine, 7},
			{3, InterleavePage, 1024},
			{5, InterleaveHash, 13},
		} {
			sp := NewSplitter(NewReplay("fuzz", ops), tc.shards, tc.iv)
			merged := make([]ShardedOp, len(ops))
			shardOf := make([]int, len(ops))
			seen := make([]bool, len(ops))
			var consumed int
			for {
				batches, n, err := sp.NextEpoch(tc.epoch)
				if err != nil {
					t.Fatalf("%d/%s: NextEpoch: %v", tc.shards, tc.iv, err)
				}
				if n == 0 {
					break
				}
				consumed += n
				for shard, batch := range batches {
					for _, sop := range batch {
						if sop.Index >= uint64(len(ops)) {
							t.Fatalf("%d/%s: index %d out of range", tc.shards, tc.iv, sop.Index)
						}
						if seen[sop.Index] {
							t.Fatalf("%d/%s: op %d duplicated", tc.shards, tc.iv, sop.Index)
						}
						seen[sop.Index] = true
						merged[sop.Index] = sop
						shardOf[sop.Index] = shard
					}
				}
			}
			if consumed != len(ops) {
				t.Fatalf("%d/%s: consumed %d of %d ops", tc.shards, tc.iv, consumed, len(ops))
			}
			// Replay the source in stream order against an independent
			// Route oracle (hash first-touch is order-sensitive, so the
			// oracle must see addresses exactly as the splitter did) and
			// reconstruct the virtual clock.
			oracle := NewSplitter(nil, tc.shards, tc.iv)
			type lineHome struct {
				shard int
				local uint64
			}
			globalOf := make(map[lineHome]uint64)
			var now uint64
			lastArrival := make([]uint64, tc.shards)
			for i, op := range ops {
				if !seen[i] {
					t.Fatalf("%d/%s: op %d lost", tc.shards, tc.iv, i)
				}
				got := merged[i]
				if got.GlobalAddr != op.Addr || got.IsWrite != op.IsWrite {
					t.Fatalf("%d/%s: op %d identity mangled: %+v vs %+v", tc.shards, tc.iv, i, got, op)
				}
				shard, local := oracle.Route(op.Addr)
				if shardOf[i] != shard || got.Addr != local {
					t.Fatalf("%d/%s: op %d routed to (%d,%#x), Route says (%d,%#x)",
						tc.shards, tc.iv, i, shardOf[i], got.Addr, shard, local)
				}
				home := lineHome{shard, local / 64}
				if g, ok := globalOf[home]; ok && g != op.Addr/64 {
					t.Fatalf("%d/%s: global lines %#x and %#x alias shard %d local line %#x",
						tc.shards, tc.iv, g*64, op.Addr, shard, local)
				}
				globalOf[home] = op.Addr / 64
				now += op.Gap
				if wantGap := now - lastArrival[shard]; got.Gap != wantGap {
					t.Fatalf("%d/%s: op %d local gap %d, want %d", tc.shards, tc.iv, i, got.Gap, wantGap)
				}
				lastArrival[shard] = now
			}
		}
	})
}
