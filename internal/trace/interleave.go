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

// mix64 is a splitmix-style finalizer; the hash mode rotates each group of
// lines by it so that any fixed stride still spreads across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Route maps a global address to (shard, local address) under mode iv. It
// is the one address → shard map: the splitter and the serving layer's
// placement groups route with it, internal/multi with the RouteChunk it
// calls, and ShardBytes sizes the local space it yields. Line and page
// are RouteChunk. Hash is line interleave with each group of shards
// consecutive lines rotated: line l of group q = l/shards goes to shard
// (l mod shards + mix64(q)) mod shards at local line q. Every shard gets
// exactly one line of every group, so the map is a bijection, exactly
// balanced and compact to ShardBytes, yet any fixed stride still
// scatters. Every mode depends on the address alone, and one shard is the
// identity.
func Route(iv Interleave, addr uint64, shards int) (int, uint64) {
	shard, local := RouteChunk(addr, iv.ChunkBytes(), shards)
	if iv == InterleaveHash {
		n := uint64(shards)
		shard = int((uint64(shard) + mix64(local/64)%n) % n)
	}
	return shard, local
}

// RouteChunk maps a global address to (shard, local address) under chunked
// round-robin interleaving: consecutive chunk-byte runs are dealt to the
// shards in turn, and each shard's local space is compacted to the chunks
// it owns. One shard is the identity. Route calls it for every mode;
// internal/multi, whose chunk is a byte count rather than a mode, calls it
// directly.
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
// Local addresses come from Route, so each shard's controller models only
// its ShardBytes slice of the space, and an op's home is a function of its
// address alone, independent of the stream and of how the shards are
// later driven.
//
// Not safe for concurrent use; the split is inherently sequential (it
// defines the global time base) and is cheap relative to simulating the
// operations it routes.
type Splitter struct {
	src Stream
	iv  Interleave

	now     uint64   // global trace time (sum of source gaps)
	last    []uint64 // per-shard global time of the last routed op
	emitted uint64   // source ops consumed so far

	bufs [][]ShardedOp // reusable per-shard epoch batches
}

// NewSplitter builds a splitter routing src across shards.
func NewSplitter(src Stream, shards int, iv Interleave) *Splitter {
	if shards <= 0 {
		panic("trace: splitter needs at least one shard")
	}
	return &Splitter{
		src:  src,
		iv:   iv,
		last: make([]uint64, shards),
		bufs: make([][]ShardedOp, shards),
	}
}

// Name returns the source stream's name.
func (sp *Splitter) Name() string {
	if sp.src == nil {
		return "unbound"
	}
	return sp.src.Name()
}

// Rebind points the splitter at a new source stream. Routing state — the
// virtual clock and per-shard arrival times — is preserved, so successive
// sources behave like one concatenated stream.
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

// ShardBytes sizes one shard's slice of a dataBytes global space under
// Route: every mode deals each group of n chunks (lines for hash) one to
// a shard, so a shard holds at most ceil(chunks/n) of them.
func ShardBytes(dataBytes uint64, shards int, iv Interleave) uint64 {
	chunk := iv.ChunkBytes()
	chunks := (dataBytes + chunk - 1) / chunk
	perShard := (chunks + uint64(shards) - 1) / uint64(shards)
	return perShard * chunk
}

// Route maps a global data address to (shard, local address) by the
// package-level Route.
func (sp *Splitter) Route(addr uint64) (int, uint64) {
	return Route(sp.iv, addr, len(sp.last))
}

// NextEpoch routes up to budget further source operations into per-shard
// batches. The returned slices are valid until the next call (buffers are
// reused). n is the number of source ops consumed; n == 0 means the source
// is exhausted. Routing cannot fail, so err is always nil; the result
// keeps its error for the callers written against it.
func (sp *Splitter) NextEpoch(budget int) (batches [][]ShardedOp, n int, err error) {
	batches, n = sp.NextEpochInto(budget, sp.bufs)
	return batches, n, nil
}

// NextEpochInto is NextEpoch routing into caller-provided per-shard
// buffers (len(bufs) must equal Shards(); each is resliced to empty and
// grown as needed). A pipelined driver alternates two buffer sets so the
// split of epoch e+1 can overlap the drive of epoch e without aliasing
// the batches the workers are still reading.
func (sp *Splitter) NextEpochInto(budget int, bufs [][]ShardedOp) (batches [][]ShardedOp, n int) {
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
		shard, local := Route(sp.iv, op.Addr, len(sp.last))
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
	return bufs, n
}
