// Snapshot support: the controller's complete state as a serializable
// value, captured at a retired-op boundary (no request or eviction in
// flight). Everything a resumed run needs to be bit-identical rides along:
// data tags, quarantine set, clocks, statistics, the metadata cache with
// its exact LRU stamps, the root register file, the full device image, the
// scheme's own state, and the optional metrics collector.

package memctrl

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"

	"steins/internal/arena"
	"steins/internal/cache"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// PolicyState is implemented by schemes that carry state beyond the shared
// controller structures (LInc registers, record/bitmap caches, volatile
// cache trees, recovery roots). A scheme without any such state (WB)
// simply doesn't implement it. Every scheme writes its state as one value
// through EncodePolicyState and reads it back through DecodePolicyState.
type PolicyState interface {
	// SaveState serializes the scheme's complete state.
	SaveState() ([]byte, error)
	// LoadState restores state saved by SaveState on a freshly built
	// policy of the same scheme and configuration. An entry the tree or
	// the scheme's on-chip capacity could not hold is an error, never a
	// later panic.
	LoadState(data []byte) error
}

// NodeCounter is one node-keyed counter of a scheme's on-chip state: a
// buffered or pipelined parent counter of a flushed child (Steins,
// PipeSIT), the seal of a written-through strict node (Triad), or the
// parent-counter LSBs a child line carries (STAR).
type NodeCounter struct {
	NodeRef
	Counter uint64
}

// SortedNodeCounters lists a node-keyed map as entries sorted by (level,
// index), the order a checkpoint stores them in.
func SortedNodeCounters[V uint16 | uint64](m map[NodeRef]V) []NodeCounter {
	es := make([]NodeCounter, 0, len(m))
	for k, v := range m {
		es = append(es, NodeCounter{k, uint64(v)})
	}
	slices.SortFunc(es, func(a, b NodeCounter) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Index, b.Index))
	})
	return es
}

// EncodePolicyState is the one codec of a scheme's SaveState blob: v as
// one gob value.
func EncodePolicyState(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePolicyState reads a blob EncodePolicyState wrote into v: exactly
// one gob value, with no bytes after it.
func DecodePolicyState(data []byte, v any) error {
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("decode state: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("decode state: %d bytes after the state", r.Len())
	}
	return nil
}

// CheckNodeCounters reports whether restored node-keyed entries fit the
// tree: every entry's level below levels (a scheme whose entries update a
// parent passes Levels-1, the top level's parent being the on-chip root)
// and its index below the level's node count. what names the table in the
// error. The count is not bounded: a buffer or pipe whose parent updates
// keep failing grows past its capacity, and its checkpoint must restore.
func (c *Controller) CheckNodeCounters(what string, es []NodeCounter, levels int) error {
	geo := &c.lay.Geo
	for i, e := range es {
		if e.Level < 0 || e.Level >= levels {
			return fmt.Errorf("%s entry %d (level %d index %d): level outside [0, %d)", what, i, e.Level, e.Index, levels)
		}
		if e.Index >= geo.LevelNodes[e.Level] {
			return fmt.Errorf("%s entry %d (level %d index %d): index past the level's %d nodes",
				what, i, e.Level, e.Index, geo.LevelNodes[e.Level])
		}
	}
	return nil
}

// NodeCounterMap is the inverse of SortedNodeCounters: it refuses a node
// listed twice and a counter wider than V. what names the table in the
// error.
func NodeCounterMap[V uint16 | uint64](what string, es []NodeCounter) (map[NodeRef]V, error) {
	m := make(map[NodeRef]V, len(es))
	for i, e := range es {
		if _, dup := m[e.NodeRef]; dup {
			return nil, fmt.Errorf("%s entry %d (level %d index %d): node listed twice", what, i, e.Level, e.Index)
		}
		if uint64(V(e.Counter)) != e.Counter {
			return nil, fmt.Errorf("%s entry %d (level %d index %d): counter %#x wider than %T",
				what, i, e.Level, e.Index, e.Counter, V(0))
		}
		m[e.NodeRef] = V(e.Counter)
	}
	return m, nil
}

// CheckCachedLines reports whether every line of a restored ADR line cache
// lies inside its NVM region [base, base+size) and carries a payload; the
// cache's own SetState checks the slots.
func CheckCachedLines[P any](what string, st cache.State[*P], base, size uint64) error {
	for i, e := range st.Entries {
		if e.Addr < base || e.Addr-base >= size {
			return fmt.Errorf("%s line %d at %#x outside its region [%#x, %#x)", what, i, e.Addr, base, base+size)
		}
		if e.Payload == nil {
			return fmt.Errorf("%s line %d at %#x has no payload", what, i, e.Addr)
		}
	}
	return nil
}

// StateLayout identifies the ControllerState encoding. Layout 6 carries
// the data tags in the chunk shape layout 5 gave the device's line and
// wear tables (arena.Table: ascending chunk indices and whole blocks of
// tagSize-byte slots), which a restore adopts in place; layout 5 listed
// every non-zero tag with its address in four columns. Layout 4 listed
// every non-zero line and wear count with its address, and writes
// every scheme's Policy blob as one gob value (EncodePolicyState); layout 3
// hand-encoded the Triad, PipeSIT and SCUE blobs in binary and mirrored the
// others' entries in scheme-private types. Layout 3 keeps the
// columnar tag and device tables of layout 2 (every 64-bit column raw
// words) but carries the tags' written flags as one byte each
// and each cached node as a fixed record (sit.Node's gob codec),
// so a server checkpoint can frame every column raw. The two
// fields whose wire type changed took new names (TagFlags, MetaCache): gob
// skips a layout-2 checkpoint's old fields instead of failing on their
// type, and Restore refuses it by layout number. Layout 1 carried the 64-bit
// columns as gob []uint64 slices; layout 0 (checkpoints written before the
// columns) has no layout field. Restore rejects every older layout rather
// than silently restoring an empty device.
const StateLayout = 6

// QuarantineState is one quarantined leaf's arbitration record.
type QuarantineState struct {
	Leaf     uint64
	Root     NodeRef
	Cause    QuarantineCause
	Evidence string
	// Readmit is the leaf's re-admission mask (bit i = data slot i freshly
	// rewritten since the quarantine verdict).
	Readmit uint64
}

// EscalationState is one line's retry-escalation count (the RAS log).
type EscalationState struct {
	Addr  uint64
	Count uint64
}

// ControllerState is the full serializable controller image. The
// configuration and the crypto engine are not captured: the restoring side
// rebuilds the controller via New from the same Config.
type ControllerState struct {
	// Layout is StateLayout for every state State captures.
	Layout uint32

	// Tags is the data-tag table in the device's chunk shape (see
	// nvmem.State), in blocks of arena.ChunkLen tagSize-byte slots.
	Tags arena.Table

	Quarantined []uint64 // sorted leaf indices
	// QuarInfo carries the arbitration record and re-admission mask of each
	// quarantined leaf that has one, sorted by leaf index.
	QuarInfo []QuarantineState
	// Escalated is the retry-escalation log, sorted by address.
	Escalated []EscalationState

	Crashed      bool
	Recovered    bool
	LastRecovery RecoveryReport

	Arrival   uint64
	ReqStart  uint64
	BusyUntil uint64
	WarmupEnd uint64
	Stats     Stats

	MetaCache cache.State[*sit.Node]
	Root      sit.Root
	Device    nvmem.State

	// Policy is the scheme's SaveState blob; PolicyStateful records whether
	// the scheme implements PolicyState at all (so a mismatch on restore is
	// an error rather than silent loss).
	PolicyStateful bool
	Policy         []byte

	HasCollector bool
	Collector    metrics.CollectorState
}

// State captures the controller at a retired-op boundary. It fails if an
// eviction is in flight (the caller checkpointed mid-request) or the
// scheme's state cannot be serialized. Cached nodes are deep-copied, so
// the state stays valid if the controller keeps running.
func (c *Controller) State() (*ControllerState, error) {
	if len(c.evicting) != 0 {
		return nil, fmt.Errorf("memctrl: snapshot with %d evictions in flight (not a retired-op boundary)", len(c.evicting))
	}
	st := &ControllerState{
		Layout:       StateLayout,
		Crashed:      c.crashed,
		Recovered:    c.recovered,
		LastRecovery: c.lastRecovery,
		Arrival:      c.arrival,
		ReqStart:     c.reqStart,
		BusyUntil:    c.busyUntil,
		WarmupEnd:    c.warmupEnd,
		Stats:        c.stats,
		Root:         c.root,
		Device:       c.dev.State(),
		Tags:         c.tags.Table(),
	}
	for w, set := range c.quarBits {
		for set != 0 {
			leaf := uint64(w)*64 + uint64(bits.TrailingZeros64(set))
			st.Quarantined = append(st.Quarantined, leaf)
			info, hasInfo := c.quarInfo[leaf]
			mask := c.readmit[leaf]
			if hasInfo || mask != 0 {
				st.QuarInfo = append(st.QuarInfo, QuarantineState{
					Leaf: leaf, Root: info.root, Cause: info.cause,
					Evidence: info.evidence, Readmit: mask,
				})
			}
			set &= set - 1
		}
	}
	for addr := range c.escalated {
		st.Escalated = append(st.Escalated, EscalationState{Addr: addr, Count: c.escalated[addr]})
	}
	sort.Slice(st.Escalated, func(i, j int) bool { return st.Escalated[i].Addr < st.Escalated[j].Addr })
	st.MetaCache = c.meta.State()
	for i, e := range st.MetaCache.Entries {
		st.MetaCache.Entries[i].Payload = e.Payload.Clone()
	}
	if ps, ok := c.policy.(PolicyState); ok {
		blob, err := ps.SaveState()
		if err != nil {
			return nil, fmt.Errorf("memctrl: scheme %s state: %w", c.policy.Name(), err)
		}
		st.PolicyStateful = true
		st.Policy = blob
	}
	if c.mx != nil {
		st.HasCollector = true
		st.Collector = c.mx.State()
	}
	return st, nil
}

// StateTables is the number of per-line tables Tables lists.
const StateTables = 3

// Tables returns the state's per-line tables in checkpoint order: the
// device's lines and wear, then the data tags.
func (st *ControllerState) Tables() [StateTables]*arena.Table {
	return [StateTables]*arena.Table{&st.Device.Lines, &st.Device.Wear, &st.Tags}
}

// checkLists reports whether the state's small sorted tables are ones
// State could have captured: quarantined leaves strictly ascending and
// inside the leaf level, arbitration records strictly ascending and only
// for quarantined leaves, the escalation log strictly ascending, every
// cached node present at its own tree address and of the configured leaf
// kind, and no collector or scheme state where its flag says none.
func (c *Controller) checkLists(st *ControllerState) error {
	geo := &c.lay.Geo
	quar := make(map[uint64]bool, len(st.Quarantined))
	for i, leaf := range st.Quarantined {
		if leaf >= geo.LevelNodes[0] || i > 0 && leaf <= st.Quarantined[i-1] {
			return fmt.Errorf("memctrl: quarantined leaf %d (%d) is past the %d leaves or out of order",
				i, leaf, geo.LevelNodes[0])
		}
		quar[leaf] = true
	}
	for i, q := range st.QuarInfo {
		if !quar[q.Leaf] || i > 0 && q.Leaf <= st.QuarInfo[i-1].Leaf {
			return fmt.Errorf("memctrl: quarantine record %d (leaf %d) is for no quarantined leaf or out of order", i, q.Leaf)
		}
	}
	for i, e := range st.Escalated {
		if i > 0 && e.Addr <= st.Escalated[i-1].Addr {
			return fmt.Errorf("memctrl: escalation entry %d (%#x) out of order", i, e.Addr)
		}
	}
	for i, e := range st.MetaCache.Entries {
		n := e.Payload
		if n == nil {
			return fmt.Errorf("memctrl: cached node %d (%#x) has no payload", i, e.Addr)
		}
		level, index, ok := geo.NodeAt(e.Addr)
		if !ok || n.Level != level || n.Index != index || index >= geo.LevelNodes[level] ||
			n.IsSplit != (level == 0 && c.cfg.SplitLeaf) {
			return fmt.Errorf("memctrl: cached node %d at %#x is level %d index %d split %v, not the node stored there",
				i, e.Addr, n.Level, n.Index, n.IsSplit)
		}
	}
	if !st.HasCollector && !reflect.ValueOf(st.Collector).IsZero() {
		return fmt.Errorf("memctrl: state carries collector state but no collector")
	}
	if !st.PolicyStateful && len(st.Policy) != 0 {
		return fmt.Errorf("memctrl: state carries scheme state for a stateless scheme")
	}
	return nil
}

// Restore rebuilds the controller from a captured state. The controller
// must have been built by New from the same Config and scheme factory as
// the captured one; mismatches surface as scheme-state errors or later
// divergence. The controller adopts the state's tag blocks as its tag
// table, and the device its line and wear blocks (nvmem.Device.Adopt);
// Restore claims all three at once (arena.Claim): a state restores once.
// A state of another layout, or one State could not have captured (a tag
// chunk past the data region, chunk indices out of order, blocks short of
// their indices, all-zero chunks, a written flag other than 0 or 1,
// unordered lists, misplaced cached nodes, an impossible collector ring,
// collector options other than the ones the controller was built with),
// is rejected before anything is overwritten or claimed, with an error
// naming the table; only the scheme's own state is loaded, and may fail,
// after the shared structures are restored. The metrics collector is
// re-created when the state carries one; fault hooks are left for the
// harness to re-register.
func (c *Controller) Restore(st *ControllerState) error {
	if st.Layout != StateLayout {
		return fmt.Errorf("memctrl: state layout %d, want %d", st.Layout, StateLayout)
	}
	tags, err := st.Tags.Adopt(tagSize, c.cfg.DataBytes/nvmem.LineSize)
	if err != nil {
		return fmt.Errorf("memctrl: tag table: %w", err)
	}
	tags.ForEach(func(line uint64, s []byte) {
		if s[tagSize-1] > 1 && err == nil {
			err = fmt.Errorf("memctrl: tag table: line %d (%#x) written flag is %d, want 0 or 1",
				line, line*nvmem.LineSize, s[tagSize-1])
		}
	})
	if err != nil {
		return err
	}
	if err := c.checkLists(st); err != nil {
		return err
	}
	if err := c.meta.CheckState(st.MetaCache); err != nil {
		return fmt.Errorf("memctrl: %w", err)
	}
	var mx *metrics.Collector
	if st.HasCollector {
		if mx, err = metrics.RestoreCollector(st.Collector); err != nil {
			return fmt.Errorf("memctrl: %w", err)
		}
		if c.mx != nil && mx.Options() != c.mx.Options() {
			return fmt.Errorf("memctrl: state collector options %+v, controller built with %+v",
				mx.Options(), c.mx.Options())
		}
	}
	ps, ok := c.policy.(PolicyState)
	if ok != st.PolicyStateful {
		return fmt.Errorf("memctrl: scheme %s state mismatch (snapshot stateful=%v, scheme stateful=%v)",
			c.policy.Name(), st.PolicyStateful, ok)
	}
	installDev, err := c.dev.Adopt(st.Device)
	if err != nil {
		return err
	}
	if err := arena.Claim(st.Device.Lines, st.Device.Wear, st.Tags); err != nil {
		return fmt.Errorf("memctrl: %w", err)
	}
	installDev()
	meta := st.MetaCache
	meta.Entries = append([]cache.EntryState[*sit.Node](nil), st.MetaCache.Entries...)
	for i, e := range meta.Entries {
		meta.Entries[i].Payload = e.Payload.Clone()
	}
	if err := c.meta.SetState(meta); err != nil {
		return fmt.Errorf("memctrl: %w", err)
	}
	c.tags = tags
	c.quarBits = nil
	c.quarN = 0
	c.quarInfo = nil
	c.readmit = nil
	for _, idx := range st.Quarantined {
		c.QuarantineLeaf(idx)
	}
	for _, q := range st.QuarInfo {
		if c.quarInfo == nil {
			c.quarInfo = make(map[uint64]quarInfo)
		}
		c.quarInfo[q.Leaf] = quarInfo{root: q.Root, cause: q.Cause, evidence: q.Evidence}
		if q.Readmit != 0 {
			if c.readmit == nil {
				c.readmit = make(map[uint64]uint64)
			}
			c.readmit[q.Leaf] = q.Readmit
		}
	}
	c.escalated = nil
	for _, e := range st.Escalated {
		if c.escalated == nil {
			c.escalated = make(map[uint64]uint64)
		}
		c.escalated[e.Addr] = e.Count
	}
	c.crashed = st.Crashed
	c.recovered = st.Recovered
	c.lastRecovery = st.LastRecovery
	c.arrival = st.Arrival
	c.reqStart = st.ReqStart
	c.busyUntil = st.BusyUntil
	c.warmupEnd = st.WarmupEnd
	c.stats = st.Stats
	c.root = st.Root
	c.evicting = c.evicting[:0]
	c.mx = mx
	if ok {
		if err := ps.LoadState(st.Policy); err != nil {
			return fmt.Errorf("memctrl: scheme %s state: %w", c.policy.Name(), err)
		}
	}
	return nil
}
