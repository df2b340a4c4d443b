// Package attack is the integrity-attack injection harness: it replays the
// threat model of §II-A against a live secure-memory system — bus/NVM
// tampering, replay of authentic stale state, and manipulation of the
// recovery-tracking structures (§III-H) — and classifies whether and where
// each attack is detected (at runtime verification or during recovery).
package attack

import (
	"errors"
	"fmt"

	"steins/internal/cme"
	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/rng"
	"steins/internal/trace"
)

// Scenario identifies one attack pattern.
type Scenario int

// The injected attacks.
const (
	// TamperData flips ciphertext bits of a written block in NVM.
	TamperData Scenario = iota
	// TamperTag corrupts the per-block authentication tag (ECC bits).
	TamperTag
	// ReplayData restores an authentic older (ciphertext, tag) pair.
	ReplayData
	// TamperNode flips bits of a persisted SIT node.
	TamperNode
	// ReplayNode restores an authentic older image of a persisted node
	// while newer state exists.
	ReplayNode
	// EraseTracking zeroes the scheme's dirty-tracking state in NVM before
	// recovery (records, bitmap, shadow table).
	EraseTracking
	// MediaTag models a media fault in the ECC-bits region holding a
	// block's tag: the counter-recovery hint flips. Unlike TamperTag this
	// damages the recovery side channel, not the authentication MAC.
	MediaTag
	// MediaRecord models a media fault in the dirty-tracking region: one
	// bit flips in the first populated tracking line (record region,
	// bitmap or shadow table, whichever the scheme uses).
	MediaRecord
	numScenarios
)

// Scenarios lists every attack.
func Scenarios() []Scenario {
	out := make([]Scenario, numScenarios)
	for i := range out {
		out[i] = Scenario(i)
	}
	return out
}

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case TamperData:
		return "tamper-data"
	case TamperTag:
		return "tamper-tag"
	case ReplayData:
		return "replay-data"
	case TamperNode:
		return "tamper-node"
	case ReplayNode:
		return "replay-node"
	case EraseTracking:
		return "erase-tracking"
	case MediaTag:
		return "media-tag"
	case MediaRecord:
		return "media-record"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// Report describes one executed attack.
type Report struct {
	Scenario    Scenario
	Detected    bool   // an integrity violation was raised
	Where       string // "recovery" or "runtime"
	Violation   error  // the integrity error observed
	Applicable  bool   // false when the scheme cannot recover at all (WB)
	Neutralized bool   // not detected but also ineffective: all data intact
}

// shardInterleave is the sharded address interleave. Its 4 KiB page is
// one split-leaf coverage (64 lines), so every leaf's covered data — and
// the replay-node epoch construction around the target — stays on one
// channel regardless of the channel count.
const shardInterleave = trace.InterleavePage

// Execute runs the scenario against a fresh system of channels
// controllers built by factory, interleaved under shardInterleave: a
// global write workload establishes state, the attack is injected into the
// channel owning the target around a machine-wide crash, every channel
// recovers (in parallel, as the deployment would), and detection is
// checked first during recovery and then by reading every attacked
// address back across the whole global space. Detection must not depend on
// the sharding: a scenario classifies identically at any channel count.
func Execute(factory memctrl.PolicyFactory, split bool, s Scenario, channels int) (Report, error) {
	rep := Report{Scenario: s, Applicable: true}
	const totalBytes = 1 << 20
	cfg := memctrl.DefaultConfig(trace.ShardBytes(totalBytes, channels, shardInterleave), split)
	cfg.MetaCacheBytes = 4 << 10
	cfg.MetaCacheWays = 4
	sys := multi.New(channels, cfg, factory, shardInterleave.ChunkBytes())

	r := rng.New(99)
	lines := uint64(totalBytes) / 64
	expected := make(map[uint64][64]byte)
	var order []uint64
	write := func(addr uint64, v byte) error {
		var b [64]byte
		b[0], b[1] = v, byte(addr>>6)
		if _, seen := expected[addr]; !seen {
			order = append(order, addr)
		}
		expected[addr] = b
		return sys.WriteData(5, addr, b)
	}
	read := func(addr uint64) ([64]byte, error) { return sys.ReadData(1, addr) }
	for i := 0; i < 3000; i++ {
		if err := write(r.Uint64n(lines)*64, byte(i)); err != nil {
			return rep, err
		}
	}
	target := order[0]
	co, lt, err := sys.Route(target)
	if err != nil {
		return rep, err
	}
	c := sys.Controllers()[co] // the channel the attack lands on

	// Capture replay material before newer writes.
	mat := Capture(c, lt)
	leaf, _ := c.Layout().Geo.LeafOfData(lt)
	leafAddr := c.Layout().Geo.NodeAddr(0, leaf)
	if s == ReplayNode {
		// Build two flush epochs for the leaf covering target.
		if _, err := c.FlushNode(0, leaf); err != nil {
			return rep, err
		}
		if _, err := read(target); err != nil {
			return rep, err
		}
		mat.Node = c.Device().Peek(leafAddr)
		if err := write(target+64*2, 77); err != nil { // same leaf, new epoch
			return rep, err
		}
		if _, err := c.FlushNode(0, leaf); err != nil {
			return rep, err
		}
		if _, err := read(target); err != nil {
			return rep, err
		}
	}
	if err := write(target, 0xAB); err != nil { // newest data
		return rep, err
	}

	sys.Crash()
	Inject(c, s, lt, mat)

	if _, _, err := sys.Recover(); err != nil {
		if errors.Is(err, memctrl.ErrNoRecovery) {
			rep.Applicable = false
			return rep, nil
		}
		if errors.Is(err, memctrl.ErrTamper) || errors.Is(err, memctrl.ErrReplay) {
			rep.Detected, rep.Where, rep.Violation = true, "recovery", err
			return rep, nil
		}
		return rep, err
	}
	// Recovery passed (the attacked state may have been outside the dirty
	// set or overwritten by the restore); the runtime verification must
	// either catch the attack on access or every block must read back
	// intact — silent corruption is the one unacceptable outcome.
	for _, addr := range order {
		got, err := read(addr)
		if err != nil {
			rep.Detected, rep.Where, rep.Violation = true, "runtime", err
			return rep, nil
		}
		if got != expected[addr] {
			return rep, fmt.Errorf("attack %v silently corrupted data at %#x", s, addr)
		}
	}
	rep.Neutralized = true
	return rep, nil
}

// Material carries the authentic stale durable state a replay scenario
// restores: the target's ciphertext line and tag, and (for ReplayNode) an
// older persisted image of the SIT leaf covering it.
type Material struct {
	Line nvmem.Line
	Tag  cme.Tag
	Node nvmem.Line
}

// Capture snapshots the target address's current durable state as replay
// material. Taken before newer writes land, it is exactly the authentic
// stale state the §II-A replay attacker holds. addr is controller-local.
func Capture(c *memctrl.Controller, addr uint64) Material {
	leaf, _ := c.Layout().Geo.LeafOfData(addr)
	return Material{
		Line: c.Device().Peek(addr),
		Tag:  c.Tag(addr),
		Node: c.Device().Peek(c.Layout().Geo.NodeAddr(0, leaf)),
	}
}

// Inject applies the scenario's mutation to the durable state around the
// controller-local target address. Replay scenarios restore the supplied
// Material; the campaign engine reuses every scenario as a schedulable
// adversarial event through this entry point.
func Inject(c *memctrl.Controller, s Scenario, target uint64, m Material) {
	leaf, _ := c.Layout().Geo.LeafOfData(target)
	leafAddr := c.Layout().Geo.NodeAddr(0, leaf)
	dev := c.Device()
	switch s {
	case TamperData:
		line := dev.Peek(target)
		line[7] ^= 0x10
		dev.Poke(target, line)
	case TamperTag:
		tag := c.Tag(target)
		tag.MAC ^= 1
		c.SetTag(target, tag)
	case ReplayData:
		dev.Poke(target, m.Line)
		c.SetTag(target, m.Tag)
	case TamperNode:
		line := dev.Peek(leafAddr)
		line[11] ^= 0x04
		dev.Poke(leafAddr, line)
	case ReplayNode:
		dev.Poke(leafAddr, m.Node)
	case EraseTracking:
		lay := c.Layout()
		for li := uint64(0); li < lay.RecordLines(); li++ {
			dev.Poke(lay.RecordBase+li*nvmem.LineSize, nvmem.Line{})
		}
		for li := uint64(0); li < lay.BitmapLines(); li++ {
			dev.Poke(lay.BitmapBase+li*nvmem.LineSize, nvmem.Line{})
		}
		for off := uint64(0); off < lay.ShadowBytes; off += nvmem.LineSize {
			dev.Poke(lay.ShadowBase+off, nvmem.Line{})
		}
	case MediaTag:
		tag := c.Tag(target)
		tag.Hint ^= 1
		c.SetTag(target, tag)
	case MediaRecord:
		mediaRecordFlip(c)
	}
}

// mediaRecordFlip flips one bit in the first populated line of the
// scheme's dirty-tracking region (records, then bitmap, then shadow). A
// scheme with no tracking state at all is untouched — the fault has
// nothing to land on.
func mediaRecordFlip(c *memctrl.Controller) {
	dev := c.Device()
	lay := c.Layout()
	regions := []struct{ base, lines uint64 }{
		{lay.RecordBase, lay.RecordLines()},
		{lay.BitmapBase, lay.BitmapLines()},
		{lay.ShadowBase, lay.ShadowBytes / nvmem.LineSize},
	}
	for _, reg := range regions {
		for li := uint64(0); li < reg.lines; li++ {
			addr := reg.base + li*nvmem.LineSize
			if line := dev.Peek(addr); line != (nvmem.Line{}) {
				line[2] ^= 0x20
				dev.Poke(addr, line)
				return
			}
		}
	}
}
