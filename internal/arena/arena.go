// Package arena provides chunked sparse arrays for hot-path metadata
// keyed by dense uint64 indices (line numbers, leaf indices). The memory
// controller and the NVM device previously kept this state in Go maps;
// a map lookup costs a hash, a probe sequence and (for pointer-valued
// maps) an allocation per entry, all on the per-operation critical path.
//
// An arena trades that for O(1) arithmetic: fixed-size chunks are
// allocated on first touch, so memory stays proportional to the touched
// index range while access is a shift, a bounds check and an add.
// Iteration (ForEach) visits slots in strictly ascending index order,
// which makes every emitter built on top of an arena deterministic by
// construction — no sort-before-emit step, no map-order ties.
//
// The zero value of T is an empty arena ready for use. Arenas are not
// safe for concurrent use, matching the single-owner discipline of the
// structures they back.
package arena

// ChunkLen is the number of slots per chunk. 512 slots keeps chunks in
// the tens-of-kilobytes range for line-sized payloads (cheap to allocate,
// friendly to the allocator's size classes) while keeping the chunk
// directory small even for multi-gigabyte index spaces.
const ChunkLen = 1 << chunkShift

const chunkShift = 9

// T is a chunked sparse array of V keyed by uint64 index.
type T[V any] struct {
	chunks []*[ChunkLen]V
}

// Probe returns a pointer to slot i if its chunk exists, else nil. It
// never allocates; use it on read paths.
func (a *T[V]) Probe(i uint64) *V {
	c := i >> chunkShift
	if c >= uint64(len(a.chunks)) || a.chunks[c] == nil {
		return nil
	}
	return &a.chunks[c][i&(ChunkLen-1)]
}

// Ptr returns a pointer to slot i, allocating its chunk (and growing the
// chunk directory) as needed. Returned pointers stay valid for the life
// of the arena: chunks are never moved or freed except by Reset.
func (a *T[V]) Ptr(i uint64) *V {
	c := i >> chunkShift
	if c >= uint64(len(a.chunks)) {
		grown := make([]*[ChunkLen]V, c+1)
		copy(grown, a.chunks)
		a.chunks = grown
	}
	if a.chunks[c] == nil {
		a.chunks[c] = new([ChunkLen]V)
	}
	return &a.chunks[c][i&(ChunkLen-1)]
}

// Reset drops every chunk, returning the arena to its empty state.
func (a *T[V]) Reset() { a.chunks = nil }

// ForEach visits every slot of every allocated chunk in strictly
// ascending index order, including slots still holding the zero V — the
// callback filters if it only wants populated entries. Pointers passed to
// fn are the live slots; fn may mutate them.
func (a *T[V]) ForEach(fn func(i uint64, v *V)) {
	for c, chunk := range a.chunks {
		if chunk == nil {
			continue
		}
		base := uint64(c) << chunkShift
		for j := range chunk {
			fn(base+uint64(j), &chunk[j])
		}
	}
}
