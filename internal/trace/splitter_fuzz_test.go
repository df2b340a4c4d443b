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

// checkRoute is the oracle for the routing map, checked against its
// definition rather than against another caller of it, through a fresh
// splitter per call so no earlier routing can matter: the shard is in
// range, the local address fits the ShardBytes-sized slice of a
// space-byte global space, (shard, local) maps back to addr, and one
// shard is the identity. Line and page deal chunks round-robin; hash
// rotates each group of n lines by mix64 of the group number.
func checkRoute(t *testing.T, addr, space uint64) {
	t.Helper()
	for _, iv := range []Interleave{InterleaveLine, InterleavePage, InterleaveHash} {
		chunk := iv.ChunkBytes()
		for n := 1; n <= 8; n++ {
			shard, local := NewSplitter(nil, n, iv).Route(addr)
			if shard < 0 || shard >= n {
				t.Fatalf("Route(%s, %#x, %d): shard %d out of range", iv, addr, n, shard)
			}
			if limit := ShardBytes(space, n, iv); local >= limit {
				t.Fatalf("Route(%s, %#x, %d): local %#x beyond shard size %#x", iv, addr, n, local, limit)
			}
			pos := uint64(shard) // the chunk's position in its group of n
			if iv == InterleaveHash {
				pos = (pos + uint64(n) - mix64(local/chunk)%uint64(n)) % uint64(n)
			}
			if back := ((local/chunk)*uint64(n)+pos)*chunk + local%chunk; back != addr {
				t.Fatalf("Route(%s, %#x, %d) = (%d, %#x) maps back to %#x", iv, addr, n, shard, local, back)
			}
			if n == 1 && (shard != 0 || local != addr) {
				t.Fatalf("Route(%s, %#x, 1) = (%d, %#x), want the identity", iv, addr, shard, local)
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
// goes through the Route oracle at every interleave over 1–8 shards.
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
	// Hash routing: a line far from the first group, alone, so its home is
	// its address's and not the order it arrived in; then two lines of one
	// group routed high line first.
	f.Add([]byte{0x39, 0x30, 0, 0, 7})
	f.Add([]byte{0x07, 0x01, 0, 0x80, 3, 0x00, 0x01, 0, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := opsFromFuzz(data)
		for _, op := range ops {
			checkRoute(t, op.Addr, 1<<20)
			checkRoute(t, op.Addr+op.Gap%64, 1<<20)
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
			{8, InterleaveHash, 64},
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
			// Route oracle and reconstruct the virtual clock.
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
