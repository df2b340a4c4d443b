// Package nvmem models a byte-addressable non-volatile main memory device
// at the granularity the memory controller sees: 64-byte lines, PCM read
// latency, a bounded write queue with tWR-scale service time, and per-class
// access/energy accounting.
//
// Timing follows the NVMain configuration of Table I
// (tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns at a 2 GHz
// controller clock). The write-pending queue sits inside the ADR
// persistence domain, so a write is durable the moment it is accepted:
// crashes lose nothing that reached the device, only state still inside
// the (non-ADR parts of the) memory controller.
package nvmem

import (
	"encoding/binary"
	"fmt"

	"steins/internal/arena"
	"steins/internal/rng"
)

// LineSize is the access granularity in bytes, matching the cache line.
const LineSize = 64

// Line is one 64-byte memory line.
type Line [LineSize]byte

// Class tags an access with the kind of state it touches so write traffic
// can be broken down the way the paper's figures discuss it.
type Class int

// Access classes.
const (
	ClassData   Class = iota // user data blocks
	ClassHMAC                // per-data-block HMACs
	ClassMeta                // SIT nodes / counter blocks
	ClassShadow              // ASIT shadow-table blocks
	ClassRecord              // Steins offset record lines
	ClassBitmap              // STAR dirty-tracking bitmap lines
	ClassOther
	numClasses
)

var classNames = [...]string{"data", "hmac", "meta", "shadow", "record", "bitmap", "other"}

// String returns the class name used in stats output.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Timing holds the PCM latency model in nanoseconds.
type Timing struct {
	TRCDNS float64 // row activate
	TCLNS  float64 // CAS (read) latency
	TCWDNS float64 // CAS write delay
	TFAWNS float64 // four-activation window
	TWTRNS float64 // write-to-read turnaround
	TWRNS  float64 // write recovery (the dominant PCM write cost)
}

// DefaultTiming is the Table I PCM latency model.
func DefaultTiming() Timing {
	return Timing{TRCDNS: 48, TCLNS: 15, TCWDNS: 13, TFAWNS: 50, TWTRNS: 7.5, TWRNS: 300}
}

// EnergyModel gives per-line access energy in picojoules. Defaults follow
// common PCM estimates (reads cheap, writes an order of magnitude dearer),
// which is all the energy figures need: they are reported normalised.
type EnergyModel struct {
	ReadPJ  float64 // energy per 64 B line read
	WritePJ float64 // energy per 64 B line write
}

// DefaultEnergy returns the default PCM energy model.
func DefaultEnergy() EnergyModel { return EnergyModel{ReadPJ: 1200, WritePJ: 16000} }

// Config configures a Device.
type Config struct {
	CapacityBytes     uint64
	ClockGHz          float64
	Timing            Timing
	Energy            EnergyModel
	WriteQueueEntries int
	// WriteBanks is the number of banks draining queued writes in
	// parallel; PCM write recovery (tWR) is per bank, so effective write
	// bandwidth is WriteBanks per tWR window.
	WriteBanks int
	// Faults enables the seeded media-fault model (fault.go); the zero
	// value keeps the device perfectly reliable.
	Faults FaultConfig
	// ECC models the SECDED layer repairing single-bit events.
	ECC ECCConfig
}

// DefaultConfig returns the Table I device: 16 GB PCM behind a 64-entry
// write queue at a 2 GHz controller clock.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:     16 << 30,
		ClockGHz:          2,
		Timing:            DefaultTiming(),
		Energy:            DefaultEnergy(),
		WriteQueueEntries: 64,
		WriteBanks:        4,
		ECC:               DefaultECC(),
	}
}

// ReadCycles is the controller-clock latency of a line read
// (row activate + CAS).
func (c Config) ReadCycles() uint64 {
	return uint64((c.Timing.TRCDNS + c.Timing.TCLNS) * c.ClockGHz)
}

// WriteServiceCycles is the service time one queued write occupies the
// device (CAS write delay + write recovery).
func (c Config) WriteServiceCycles() uint64 {
	return uint64((c.Timing.TCWDNS + c.Timing.TWRNS) * c.ClockGHz)
}

// Stats aggregates device activity.
type Stats struct {
	Reads       [numClasses]uint64
	Writes      [numClasses]uint64
	StallCycles uint64 // cycles requests waited on a full write queue
	// Faults breaks down media-fault and ECC activity; all zero when the
	// fault model is off.
	Faults FaultCounters
}

// Merge folds another device's statistics into s; the multi-controller
// system builds its system-wide view this way.
func (s *Stats) Merge(o *Stats) {
	for i := range s.Reads {
		s.Reads[i] += o.Reads[i]
		s.Writes[i] += o.Writes[i]
	}
	s.StallCycles += o.StallCycles
	s.Faults.Merge(&o.Faults)
}

// TotalReads returns reads across all classes.
func (s Stats) TotalReads() uint64 { return total(&s.Reads) }

// TotalWrites returns writes across all classes.
func (s Stats) TotalWrites() uint64 { return total(&s.Writes) }

// WriteBytes returns total bytes written.
func (s Stats) WriteBytes() uint64 { return s.TotalWrites() * LineSize }

func total(a *[numClasses]uint64) uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// Device is the NVM device. It is not safe for concurrent use; the memory
// controller serialises requests to one DIMM exactly as §IV-F describes.
type Device struct {
	cfg Config
	// lines holds contents indexed by line number (addr/LineSize) in a
	// chunked arena of LineSize-byte slots: device reads and writes are
	// the innermost operations of every simulated request, and a map
	// lookup per access dominated the profile. A zero slot equals an
	// absent line (fresh memory reads zero). The chunks are byte blocks,
	// so a checkpoint carries them as they are and a restore adopts them
	// (state.go).
	lines arena.Bytes
	// wear counts writes per line (same indexing), one little-endian
	// uint64 per slot; PCM's limited write endurance (§I) is a first-class
	// concern, and recovery schemes that concentrate writes (shadow
	// tables, record lines) show up here.
	wear arena.Bytes
	// queue holds completion times (in cycles) of pending writes, FIFO
	// by completion, inside qbuf (see insertCompletion); banks tracks
	// when each bank next frees up.
	queue []uint64
	qbuf  []uint64
	banks []uint64
	stats Stats
	// observer, when set, sees every durable line write (fault-injection
	// harnesses count events through it). It runs after the store commits.
	observer func(addr uint64, cls Class)
	// frng is the media-fault stream; nil keeps every access fault-free.
	frng *rng.Source
	// stuck holds the sticky stuck-at overlays (same indexing); a zero
	// mask equals no overlay, stuckN counts lines with one.
	stuck  arena.T[stuckLine]
	stuckN int
	// last is the tear candidate for the next crash boundary.
	last lastWrite
	// evid is the per-line media-fault evidence ledger (evidence.go);
	// tornN counts lines whose torn flag is currently set, gating the
	// clear-on-rewrite probe out of the fault-free hot path.
	evid  arena.T[lineEvidence]
	tornN int
}

// New creates a Device. Lines read before any write return the zero line,
// matching freshly initialised (zeroed) memory.
func New(cfg Config) *Device {
	if cfg.CapacityBytes == 0 || cfg.CapacityBytes%LineSize != 0 {
		panic("nvmem: capacity must be a positive multiple of the line size")
	}
	if cfg.WriteQueueEntries <= 0 {
		panic("nvmem: write queue must have at least one entry")
	}
	if cfg.WriteBanks <= 0 {
		panic("nvmem: need at least one write bank")
	}
	return &Device{
		cfg:   cfg,
		lines: arena.NewBytes(LineSize),
		wear:  arena.NewBytes(wearSize),
		qbuf:  make([]uint64, 0, 2*cfg.WriteQueueEntries),
		banks: make([]uint64, cfg.WriteBanks),
		frng:  faultRNG(cfg),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the statistics without touching contents.
func (d *Device) ResetStats() { d.stats = Stats{} }

// checkAddr validates alignment and range, returning a wrapped
// ErrUnaligned/ErrOutOfRange on violation.
func (d *Device) checkAddr(addr uint64) error {
	if addr%LineSize != 0 {
		return fmt.Errorf("%w: %#x", ErrUnaligned, addr)
	}
	if addr >= d.cfg.CapacityBytes {
		return fmt.Errorf("%w: %#x >= %#x", ErrOutOfRange, addr, d.cfg.CapacityBytes)
	}
	return nil
}

// mustAddr is checkAddr for the untimed inspection paths (Peek/Poke/
// WearOf), where a bad address is a harness programming error.
func (d *Device) mustAddr(addr uint64) {
	if err := d.checkAddr(addr); err != nil {
		panic(err)
	}
}

// Read fetches the line at addr. It returns the contents and the access
// latency in cycles. A misaligned or out-of-range address returns a
// wrapped ErrUnaligned/ErrOutOfRange; under the media-fault model a line
// whose damage exceeds the ECC correction capability returns the raw
// contents together with a *FaultError matching ErrUncorrectable.
func (d *Device) Read(now uint64, addr uint64, cls Class) (Line, uint64, error) {
	if err := d.checkAddr(addr); err != nil {
		return Line{}, 0, err
	}
	d.drain(now)
	d.stats.Reads[cls]++
	intended := d.peekIntended(addr)
	lat := d.cfg.ReadCycles()
	if d.frng == nil {
		return intended, lat, nil
	}
	raw := d.corrupt(addr, intended, true)
	out, extra, err := d.decode(addr, cls, intended, raw, true)
	return out, lat + extra, err
}

// Write stores the line at addr through the write queue. It returns the
// cycles the caller stalled waiting for a free queue entry (zero when the
// queue has room) and a wrapped ErrUnaligned/ErrOutOfRange for a bad
// address. The write is durable on return.
func (d *Device) Write(now uint64, addr uint64, line Line, cls Class) (uint64, error) {
	if err := d.checkAddr(addr); err != nil {
		return 0, err
	}
	d.drain(now)
	var stall uint64
	if len(d.queue) >= d.cfg.WriteQueueEntries {
		head := d.queue[0]
		if head > now {
			stall = head - now
			now = head
		}
		d.drain(now)
	}
	// Dispatch to the bank that frees up first.
	bank := 0
	for i := 1; i < len(d.banks); i++ {
		if d.banks[i] < d.banks[bank] {
			bank = i
		}
	}
	start := now
	if d.banks[bank] > start {
		start = d.banks[bank]
	}
	done := start + d.cfg.WriteServiceCycles()
	d.banks[bank] = done
	d.insertCompletion(done)
	d.stats.Writes[cls]++
	d.stats.StallCycles += stall
	w := d.wear.Ptr(addr / LineSize)
	binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)+1)
	if d.frng != nil {
		if d.frng.Bool(d.cfg.Faults.StuckPerWrite) {
			d.addStuckBit(addr)
		}
		d.last = lastWrite{valid: true, addr: addr, prev: d.peekIntended(addr), next: line}
	}
	d.store(addr, line)
	if d.observer != nil {
		d.observer(addr, cls)
	}
	return stall, nil
}

// MustWrite is Write for internal, layout-derived addresses that are
// correct by construction; an address error panics.
func (d *Device) MustWrite(now uint64, addr uint64, line Line, cls Class) uint64 {
	stall, err := d.Write(now, addr, line, cls)
	if err != nil {
		panic(err)
	}
	return stall
}

// SetWriteObserver registers a callback invoked after every timed Write
// commits (Poke is exempt: it models out-of-band access, not controller
// traffic). Pass nil to remove it.
func (d *Device) SetWriteObserver(fn func(addr uint64, cls Class)) { d.observer = fn }

// insertCompletion keeps the pending-write list sorted by completion time.
// drain retires entries by slicing them off the queue's front, so once the
// queue reaches qbuf's end its entries move back to qbuf's start: at most
// once per WriteQueueEntries writes, since qbuf holds twice that many.
func (d *Device) insertCompletion(done uint64) {
	if len(d.queue) == cap(d.queue) {
		d.queue = append(d.qbuf[:0], d.queue...)
	}
	i := len(d.queue)
	d.queue = append(d.queue, done)
	for i > 0 && d.queue[i-1] > done {
		d.queue[i] = d.queue[i-1]
		i--
	}
	d.queue[i] = done
}

// drain removes queue entries whose service completed at or before now.
func (d *Device) drain(now uint64) {
	i := 0
	for i < len(d.queue) && d.queue[i] <= now {
		i++
	}
	d.queue = d.queue[i:]
}

// QueueDepth returns the number of writes still pending at time now.
func (d *Device) QueueDepth(now uint64) int {
	d.drain(now)
	return len(d.queue)
}

func (d *Device) store(addr uint64, line Line) {
	if d.tornN > 0 {
		// A rewrite supersedes torn content: the old tear can no longer
		// explain damage to what is stored now.
		if ev := d.evid.Probe(addr / LineSize); ev != nil && ev.torn {
			ev.torn = false
			d.tornN--
		}
	}
	*(*Line)(d.lines.Ptr(addr / LineSize)) = line
}

// peekIntended returns the stored (pre-overlay) contents of addr.
func (d *Device) peekIntended(addr uint64) Line {
	if l := d.lines.Probe(addr / LineSize); l != nil {
		return Line(l)
	}
	return Line{}
}

// Peek returns the current contents of addr without timing or stats;
// recovery code uses it together with its own read accounting, and tests
// use it to inspect durable state. Under the media-fault model Peek sees
// what a fresh read would deliver: the stuck-cell overlay applied and then
// silently best-effort ECC-decoded (corrected where possible, raw where
// not) — the cryptographic layer is what catches uncorrectable content.
func (d *Device) Peek(addr uint64) Line {
	var out Line
	d.PeekInto(addr, &out)
	return out
}

// PeekInto is Peek delivering the line into dst, so a caller can read a
// line straight into a larger buffer (a MAC message) without a copy in
// between.
func (d *Device) PeekInto(addr uint64, dst *Line) {
	d.mustAddr(addr)
	intended := d.peekIntended(addr)
	if d.frng == nil {
		*dst = intended
		return
	}
	raw := d.corrupt(addr, intended, false)
	*dst, _, _ = d.decode(addr, ClassOther, intended, raw, false)
}

// Poke overwrites addr without timing or stats. Attack injection uses it
// to model an adversary with physical access to the DIMM (who writes the
// line together with matching ECC bits, so Poked content is ECC-clean).
func (d *Device) Poke(addr uint64, line Line) {
	d.mustAddr(addr)
	d.store(addr, line)
}

// EnergyPJ returns the device energy consumed so far under the configured
// per-access model.
func (d *Device) EnergyPJ() float64 {
	return float64(d.stats.TotalReads())*d.cfg.Energy.ReadPJ +
		float64(d.stats.TotalWrites())*d.cfg.Energy.WritePJ
}

// PopulatedLines reports how many distinct non-zero lines the device holds;
// tests use it to bound simulator footprints. It scans the device.
func (d *Device) PopulatedLines() int {
	n := 0
	d.lines.ForEach(func(_ uint64, l []byte) {
		if Line(l) != (Line{}) {
			n++
		}
	})
	return n
}

// Wear summarises write endurance consumption.
type Wear struct {
	LinesWritten uint64 // distinct lines ever written
	TotalWrites  uint64
	MaxPerLine   uint64 // the hottest line's write count
	HotAddr      uint64 // its address
}

// WearStats scans the per-line write counts. With PCM endurance around
// 10^8 writes, MaxPerLine bounds device lifetime; schemes that hammer a
// fixed region (ASIT's shadow slots, Steins' record lines) surface here.
// The scan runs in ascending address order, so HotAddr is the lowest
// address among max-count ties — the map-backed version picked an
// arbitrary tie, silently breaking the deterministic-output contract of
// every emitter built on it.
func (d *Device) WearStats() Wear {
	var w Wear
	d.wear.ForEach(func(idx uint64, slot []byte) {
		n := binary.LittleEndian.Uint64(slot)
		if n == 0 {
			return
		}
		w.LinesWritten++
		w.TotalWrites += n
		if n > w.MaxPerLine {
			w.MaxPerLine, w.HotAddr = n, idx*LineSize
		}
	})
	return w
}

// WearOf returns one line's write count.
func (d *Device) WearOf(addr uint64) uint64 {
	d.mustAddr(addr)
	if w := d.wear.Probe(addr / LineSize); w != nil {
		return binary.LittleEndian.Uint64(w)
	}
	return 0
}
