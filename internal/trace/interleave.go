package trace

import "fmt"

// Interleave selects the granularity at which a global physical address
// space is distributed across channels (shards). Real secure-NVM systems
// interleave consecutive chunks round-robin across channels so independent
// controllers serve disjoint slices of the address space; the hash mode
// models address-scrambled interleaving (used to defeat pathological
// strides) at cache-line granularity.
type Interleave int

// Interleave modes.
const (
	InterleaveLine Interleave = iota // 64 B cache-line round-robin
	InterleavePage                   // 4 KiB page round-robin
	InterleaveHash                   // hashed cache-line scatter
)

var interleaveNames = [...]string{"line", "page", "hash"}

// String returns the flag spelling of the mode.
func (iv Interleave) String() string {
	if iv < 0 || int(iv) >= len(interleaveNames) {
		return fmt.Sprintf("interleave(%d)", int(iv))
	}
	return interleaveNames[iv]
}

// ParseInterleave maps a flag spelling to its mode.
func ParseInterleave(s string) (Interleave, error) {
	for i, n := range interleaveNames {
		if s == n {
			return Interleave(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown interleave %q (have line, page, hash)", s)
}

// ChunkBytes is the contiguous run of addresses a mode keeps on one shard.
func (iv Interleave) ChunkBytes() uint64 {
	if iv == InterleavePage {
		return 4096
	}
	return 64
}

// mix64 is a splitmix-style finalizer; the hash mode scatters cache lines
// with it so that any fixed stride still spreads across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashShard maps a data address to its shard under the hash interleave:
// the owning shard of addr's 64 B line, for any consumer that routes by
// the scattered mapping without the splitter's first-touch local
// compaction (the serving layer's pool → placement-group routing keeps
// hash-mode local addresses identical to global ones, so routing must be
// a pure function of the address).
func HashShard(addr uint64, shards int) int {
	return int(mix64(addr/64) % uint64(shards))
}

// RouteChunk maps a global address to (shard, local address) under chunked
// round-robin interleaving: consecutive chunk-byte runs are dealt to the
// shards in turn, and each shard's local space is compacted to the chunks
// it owns. One shard is the identity. It is the single owner of this
// arithmetic; the splitter's line/page modes, the multi-DIMM system (and
// through it the attack and campaign harnesses) and the serving layer's
// placement groups all route through it, and ShardBytes sizes the local
// space it yields.
func RouteChunk(addr, chunk uint64, shards int) (int, uint64) {
	c, n := addr/chunk, uint64(shards)
	return int(c % n), (c/n)*chunk + addr%chunk
}

// ShardedOp is one operation routed to a shard: the embedded Op carries the
// shard-local address and shard-local inter-arrival gap, while GlobalAddr
// and Index preserve the operation's identity in the source stream (payload
// derivation and split→merge round-trip checks key off them).
type ShardedOp struct {
	Op
	GlobalAddr uint64
	Index      uint64 // global op ordinal, 0-based
}

// Splitter partitions one operation stream across n shards by address
// interleaving. It owns the virtual clock: global trace time advances with
// every source operation, and each shard observes the correct local
// inter-arrival gap (the time since the previous request routed to it), so
// per-shard replay is bit-identical to routing the stream through an
// interleaved multi-controller system sequentially.
//
// Local addresses are compacted so each shard's controller models only its
// slice of the space: line/page modes route with RouteChunk (as
// internal/multi does), the hash mode assigns local lines
// first-touch in stream order. Both are deterministic functions of the
// stream alone, independent of how the shards are later driven.
//
// Not safe for concurrent use; the split is inherently sequential (it
// defines the global time base) and is cheap relative to simulating the
// operations it routes.
type Splitter struct {
	src   Stream
	iv    Interleave
	chunk uint64

	// LimitLocalBytes, when non-zero, bounds each shard's local address
	// space: the hash mode's first-touch allocator reports an error instead
	// of handing out a local line beyond it. Line/page modes never exceed
	// ceil(globalChunks/n)*chunk by construction.
	LimitLocalBytes uint64

	now     uint64   // global trace time (sum of source gaps)
	last    []uint64 // per-shard global time of the last routed op
	emitted uint64   // source ops consumed so far

	// Hash-mode first-touch compaction state.
	localLine []map[uint64]uint64 // per shard: global line -> local line
	nextLine  []uint64

	bufs [][]ShardedOp // reusable per-shard epoch batches
}

// NewSplitter builds a splitter routing src across shards.
func NewSplitter(src Stream, shards int, iv Interleave) *Splitter {
	if shards <= 0 {
		panic("trace: splitter needs at least one shard")
	}
	sp := &Splitter{
		src:   src,
		iv:    iv,
		chunk: iv.ChunkBytes(),
		last:  make([]uint64, shards),
		bufs:  make([][]ShardedOp, shards),
	}
	if iv == InterleaveHash {
		sp.localLine = make([]map[uint64]uint64, shards)
		for i := range sp.localLine {
			sp.localLine[i] = make(map[uint64]uint64)
		}
		sp.nextLine = make([]uint64, shards)
	}
	return sp
}

// Name returns the source stream's name.
func (sp *Splitter) Name() string {
	if sp.src == nil {
		return "unbound"
	}
	return sp.src.Name()
}

// Rebind points the splitter at a new source stream. Routing state — the
// virtual clock, per-shard arrival times, first-touch assignments — is
// preserved, so successive sources behave like one concatenated stream.
func (sp *Splitter) Rebind(src Stream) { sp.src = src }

// Shards returns the shard count.
func (sp *Splitter) Shards() int { return len(sp.last) }

// Emitted returns how many source operations have been routed so far.
func (sp *Splitter) Emitted() uint64 { return sp.emitted }

// ShardBytes returns the local address-space size one shard needs to cover
// every global address below dataBytes under this splitter's mode.
func (sp *Splitter) ShardBytes(dataBytes uint64) uint64 {
	return ShardBytes(dataBytes, len(sp.last), sp.iv)
}

// ShardBytes sizes one shard's slice of a dataBytes global space: the
// chunks are dealt round-robin, so a shard holds at most ceil(chunks/n) of
// them. The hash mode compacts first-touch and is bounded by the same
// figure only in expectation; callers give it the same capacity and the
// splitter reports an error if scatter imbalance ever exceeds it.
func ShardBytes(dataBytes uint64, shards int, iv Interleave) uint64 {
	chunk := iv.ChunkBytes()
	chunks := (dataBytes + chunk - 1) / chunk
	perShard := (chunks + uint64(shards) - 1) / uint64(shards)
	return perShard * chunk
}

// Route maps a global data address to (shard, local address). For the hash
// mode, addresses not yet seen in the stream are assigned a fresh local
// line (first-touch), exactly as the split itself would.
func (sp *Splitter) Route(addr uint64) (int, uint64) {
	if sp.iv == InterleaveHash {
		return sp.routeHash(addr)
	}
	return RouteChunk(addr, sp.chunk, len(sp.last))
}

// routeHash is the hash mode's Route: scattered lines, local lines handed
// out first-touch.
func (sp *Splitter) routeHash(addr uint64) (int, uint64) {
	line := addr / 64
	shard := HashShard(addr, len(sp.last))
	loc, ok := sp.localLine[shard][line]
	if !ok {
		loc = sp.nextLine[shard]
		sp.nextLine[shard]++
		sp.localLine[shard][line] = loc
	}
	return shard, loc*64 + addr%64
}

// NextEpoch routes up to budget further source operations into per-shard
// batches. The returned slices are valid until the next call (buffers are
// reused). n is the number of source ops consumed; n == 0 means the source
// is exhausted. A non-nil error reports hash-mode local-address overflow
// (LimitLocalBytes exceeded); the epoch is unusable then.
func (sp *Splitter) NextEpoch(budget int) (batches [][]ShardedOp, n int, err error) {
	return sp.NextEpochInto(budget, sp.bufs)
}

// NextEpochInto is NextEpoch routing into caller-provided per-shard
// buffers (len(bufs) must equal Shards(); each is resliced to empty and
// grown as needed). A pipelined driver alternates two buffer sets so the
// split of epoch e+1 can overlap the drive of epoch e without aliasing
// the batches the workers are still reading.
func (sp *Splitter) NextEpochInto(budget int, bufs [][]ShardedOp) (batches [][]ShardedOp, n int, err error) {
	if len(bufs) != len(sp.last) {
		panic(fmt.Sprintf("trace: NextEpochInto with %d buffers for %d shards", len(bufs), len(sp.last)))
	}
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	for sp.src != nil && n < budget {
		op, ok := sp.src.Next()
		if !ok {
			break
		}
		// Route, unrolled so the chunk arithmetic inlines into this loop.
		var shard int
		var local uint64
		if sp.iv == InterleaveHash {
			shard, local = sp.routeHash(op.Addr)
		} else {
			shard, local = RouteChunk(op.Addr, sp.chunk, len(sp.last))
		}
		if sp.LimitLocalBytes != 0 && local >= sp.LimitLocalBytes {
			return bufs, n, fmt.Errorf(
				"trace: shard %d local address %#x beyond capacity %#x (hash scatter imbalance; raise DataBytes)",
				shard, local, sp.LimitLocalBytes)
		}
		sp.now += op.Gap
		bufs[shard] = append(bufs[shard], ShardedOp{
			Op:         Op{Addr: local, IsWrite: op.IsWrite, Gap: sp.now - sp.last[shard]},
			GlobalAddr: op.Addr,
			Index:      sp.emitted,
		})
		sp.last[shard] = sp.now
		sp.emitted++
		n++
	}
	return bufs, n, nil
}
