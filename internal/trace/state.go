// Snapshot support for the generator and the splitter. Neither captures its
// construction parameters: the restoring side rebuilds with New/NewSplitter
// from the snapshot header (profile name, seed, op count, shard count,
// interleave mode) — which deterministically reconstructs the Zipf CDF — and
// then applies the captured cursor state on top.

package trace

// GeneratorState is the serializable position of a Generator within its
// stream. The RNG state covers the Zipf sampler too: it draws through the
// same source.
type GeneratorState struct {
	RNG     [4]uint64
	Emit    int
	Cursor  uint64
	Head    uint64
	Phase   int
	Random  bool
	RunLeft int
	RunBase uint64
}

// State captures the generator's position.
func (g *Generator) State() GeneratorState {
	return GeneratorState{
		RNG:     g.r.State(),
		Emit:    g.emit,
		Cursor:  g.cursor,
		Head:    g.head,
		Phase:   g.phase,
		Random:  g.random,
		RunLeft: g.runLeft,
		RunBase: g.runBase,
	}
}

// Restore repositions the generator. It must have been built by New with
// the same profile, seed and op count as the captured one.
func (g *Generator) Restore(st GeneratorState) {
	g.r.Restore(st.RNG)
	g.emit = st.Emit
	g.cursor = st.Cursor
	g.head = st.Head
	g.phase = st.Phase
	g.random = st.Random
	g.runLeft = st.RunLeft
	g.runBase = st.RunBase
}

// SplitterState is the serializable routing state of a Splitter: the
// virtual clock, per-shard arrival times and the emitted-op counter (the
// global op ordinal of the next routed op). Routing itself is a function
// of the address, so nothing else needs to survive a restart.
type SplitterState struct {
	Now     uint64
	Last    []uint64
	Emitted uint64
}

// State captures the splitter's routing state.
func (sp *Splitter) State() SplitterState {
	return SplitterState{
		Now:     sp.now,
		Last:    append([]uint64(nil), sp.last...),
		Emitted: sp.emitted,
	}
}

// Restore rebuilds the splitter's routing state. The splitter must have
// been built by NewSplitter with the same shard count and interleave mode.
func (sp *Splitter) Restore(st SplitterState) {
	sp.now = st.Now
	copy(sp.last, st.Last)
	sp.emitted = st.Emitted
}
