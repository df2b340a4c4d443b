// The case executor: builds the channel-sharded system a case describes,
// interprets its schedule round by round, and classifies the outcome
// against the golden shadow model under the zero-silent-corruption
// contract. Everything here is deterministic in (Case, Schedule): the only
// randomness is the execution RNG derived from the case seed, whose draw
// order depends only on the schedule being interpreted.

package campaign

import (
	"errors"
	"fmt"
	"sort"

	"steins/internal/attack"
	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/rng"
	"steins/internal/sim"
	"steins/internal/trace"
)

// Verdict classifies one completed case.
type Verdict int

// Case verdicts, from most benign to most severe. Fail is the only
// unacceptable outcome: wrong data without a structured error, or an
// unclassified error anywhere.
const (
	// Clean: every round survived, recovery succeeded, full readback matched.
	Clean Verdict = iota
	// Neutralized: adversarial events were scheduled but changed nothing
	// observable — all data read back intact with no detection raised.
	Neutralized
	// DetectedRuntime: the integrity machinery rejected damage at a read.
	DetectedRuntime
	// DetectedRecovery: recovery refused the damaged persisted state.
	DetectedRecovery
	// NoRecovery: the scheme cannot recover at all (the WB baselines).
	NoRecovery
	// DegradedLoss: recovery degraded (healed/quarantined) and some lines
	// were lost to structured media errors — bounded, reported loss.
	DegradedLoss
	// SkippedCrash: the armed crash point was never reached; the case ran
	// as a pure workload window and verified clean.
	SkippedCrash
	// DetectedQuarantine: degraded recovery quarantined damage that no
	// recorded media evidence explains — replay-shaped or ambiguous — and
	// the fence (or the degradation report itself) surfaced the detection.
	DetectedQuarantine
	// Fail is a contract violation; the case emits a repro artifact.
	Fail
	numVerdicts
)

var verdictNames = [numVerdicts]string{
	"clean", "neutralized", "detected-runtime", "detected-recovery",
	"no-recovery", "degraded-loss", "skipped-crash", "detected-quarantine", "FAIL",
}

func (v Verdict) String() string {
	if v < 0 || v >= numVerdicts {
		return fmt.Sprintf("verdict(%d)", int(v))
	}
	return verdictNames[v]
}

// Case is one fully-specified campaign case.
type Case struct {
	Index     int
	Scheme    string
	Workload  string
	Seed      uint64 // case seed; schedule and execution RNGs derive from it
	Channels  int
	Footprint uint64
	Sched     Schedule
}

// CaseResult is the classification of one executed case.
type CaseResult struct {
	Verdict Verdict
	Detail  string // populated for Fail and the detection verdicts
}

// interleave is the channel interleave, matching the attack harness: its
// 4 KiB page is one split-leaf coverage, so a leaf's covered data stays on
// one channel at any channel count.
const interleave = trace.InterleavePage

// structuredMedia reports whether err is a classified media failure: a
// controller media fault (retry budget exhausted or quarantined) or a raw
// detected-uncorrectable device error.
func structuredMedia(err error) bool {
	return errors.Is(err, memctrl.ErrMediaFault) || errors.Is(err, nvmem.ErrUncorrectable)
}

// structuredIntegrity reports whether err is a cryptographic integrity
// verdict (tamper or replay violation).
func structuredIntegrity(err error) bool {
	return errors.Is(err, memctrl.ErrTamper) || errors.Is(err, memctrl.ErrReplay)
}

// caseRun is the mutable state of one executing case.
type caseRun struct {
	c      Case
	sys    *multi.System
	gen    *trace.Generator
	exec   *rng.Source // execution-time draws (flip positions, recrash channel)
	shadow map[uint64][64]byte
	seq    uint64

	damaged  bool // any tamper/flip landed (integrity-class damage present)
	mediaHit bool // faults/flips/degraded could explain media errors
	// deepCheck runs the controller's persisted-metadata oracle after each
	// successful recovery while no damage has landed: without a fault
	// model, tamper or flip the persisted image must be self-consistent.
	deepCheck bool

	// Tallies the package's own tests assert non-vacuity on.
	crashes   [memctrl.NumEvents]int // committed runtime crashes per class
	recrashes int                    // recovery passes aborted mid-flight
	deepOK    int                    // recoveries the deep oracle passed

	detected    Verdict // highest detection observed (0 = none)
	detail      string
	mediaLost   uint64
	skipped     bool // some armed crash never fired
	crashedEver bool // at least one crash committed
	adversarial bool // any adversarial event was scheduled and executed
}

// RunCase executes one case and classifies it. It never returns an error:
// harness-level impossibilities (unknown scheme or workload) classify as
// Fail, since a repro artifact naming them must replay to the same verdict.
func RunCase(c Case) CaseResult {
	res, _ := runCase(c)
	return res
}

// runCase is RunCase returning the finished run too (nil when the case
// could not be built), so the package's tests can read its tallies.
func runCase(c Case) (CaseResult, *caseRun) {
	s, ok := sim.SchemeByName(c.Scheme)
	if !ok {
		return CaseResult{Fail, fmt.Sprintf("unknown scheme %q", c.Scheme)}, nil
	}
	prof, ok := trace.ByName(c.Workload)
	if !ok {
		return CaseResult{Fail, fmt.Sprintf("unknown workload %q", c.Workload)}, nil
	}
	if c.Channels < 1 || c.Footprint == 0 || c.Footprint%64 != 0 {
		return CaseResult{Fail, fmt.Sprintf("bad shape: %d channels, %d bytes", c.Channels, c.Footprint)}, nil
	}
	prof.FootprintBytes = c.Footprint

	r := &caseRun{
		c:         c,
		exec:      rng.New(c.Seed ^ 0x5851f42d4c957f2d),
		shadow:    make(map[uint64][64]byte),
		deepCheck: !c.Sched.Faults.Enabled(),
	}
	var totalOps int
	for _, rd := range c.Sched.Rounds {
		totalOps += int(rd.Ops) + 1 // +1 replay-priming write per round
	}
	r.gen = trace.New(prof, c.Seed, totalOps)
	// One channel keeps the footprint as is (any 64 B multiple); more
	// channels take whole interleave pages.
	chBytes := c.Footprint
	if c.Channels > 1 {
		chBytes = trace.ShardBytes(c.Footprint, c.Channels, interleave)
	}
	cfg := memctrl.DefaultConfig(chBytes, s.Split)
	cfg.MetaCacheBytes = 4 << 10
	cfg.MetaCacheWays = 4
	cfg.DegradedRecovery = c.Sched.Degraded
	cfg.NVM.Faults = c.Sched.Faults
	r.sys = multi.New(c.Channels, cfg, s.Factory, interleave.ChunkBytes())
	r.mediaHit = c.Sched.Faults.Enabled() || c.Sched.Degraded

	for ri := range c.Sched.Rounds {
		done := r.round(&c.Sched.Rounds[ri])
		if r.detail != "" && r.detected == Fail {
			return CaseResult{Fail, r.detail}, r
		}
		if done {
			break
		}
	}

	if c.Sched.Sabotage && len(r.shadow) > 0 {
		// The deliberate-corruption self-check: falsify the golden model for
		// one address so the final verify MUST flag a silent corruption. A
		// campaign whose sabotage cases don't fail has a broken oracle.
		addrs := r.sortedShadow()
		a := addrs[int(r.exec.Uint64n(uint64(len(addrs))))]
		b := r.shadow[a]
		b[0] ^= 0xFF
		r.shadow[a] = b
		r.adversarial = true
	}
	if r.detected == 0 || r.detected == DetectedRuntime || r.detected == DetectedQuarantine {
		// Final full readback (detection at recovery ends the case earlier;
		// a quarantine verdict keeps running — re-admission is part of the
		// lifecycle under test).
		r.verify()
		if r.detected == Fail {
			return CaseResult{Fail, r.detail}, r
		}
	}

	switch {
	case r.detected != 0:
		return CaseResult{r.detected, r.detail}, r
	case r.mediaLost > 0:
		return CaseResult{DegradedLoss, fmt.Sprintf("%d lines lost to structured media errors", r.mediaLost)}, r
	case r.skipped && !r.crashedEver:
		return CaseResult{SkippedCrash, ""}, r
	case r.adversarial:
		return CaseResult{Neutralized, ""}, r
	default:
		return CaseResult{Clean, ""}, r
	}
}

// round interprets one schedule round; done=true ends the case (detection,
// no-recovery, or failure).
func (r *caseRun) round(rd *Round) bool {
	// Capture replay material for the round's tampers before driving, and
	// prime replay scenarios with one extra write so the captured state is
	// genuinely stale by crash time.
	var mats []attack.Material
	var matAddrs []uint64
	for _, tm := range rd.Tampers {
		addr := r.tamperTarget(tm)
		// Ensure the target exists on media before capturing.
		if _, seen := r.shadow[addr]; !seen {
			if !r.driveWrite(addr) {
				return true
			}
		}
		mats = append(mats, attack.Capture(r.home(addr)))
		matAddrs = append(matAddrs, addr)
		if attack.Scenario(tm.Scenario) == attack.ReplayData || attack.Scenario(tm.Scenario) == attack.ReplayNode {
			if !r.driveWrite(addr) { // advance past the captured state
				return true
			}
		}
	}

	var inj *injector
	if rd.Crash {
		inj = newInjector(memctrl.Event(rd.CrashEv), uint64(rd.CrashN))
		for _, c := range r.sys.Controllers() {
			c.SetFaultHooks(inj)
		}
		r.adversarial = true
	}
	crashed := false
	for i := uint32(0); i < rd.Ops; i++ {
		op, more := r.gen.Next()
		if !more {
			break
		}
		if !r.drive(op) {
			return true
		}
		if inj != nil && inj.armed {
			crashed = true
			break
		}
	}
	if inj != nil {
		for _, c := range r.sys.Controllers() {
			c.SetFaultHooks(nil)
		}
	}
	if !rd.Crash {
		return false
	}
	if !crashed {
		r.skipped = true
		return false
	}

	// The crash commits at the boundary of the request that retired the
	// armed event (ADR/WPQ model): all channels lose volatile state.
	r.crashedEver = true
	r.crashes[rd.CrashEv]++
	r.sys.Crash()

	for i, tm := range rd.Tampers {
		c, local := r.home(matAddrs[i])
		attack.Inject(c, attack.Scenario(tm.Scenario), local, mats[i])
		r.damaged = true
	}
	for i := 0; i < int(rd.FlipNodes); i++ {
		if r.flipNode() {
			r.damaged = true
			r.mediaHit = true
		}
	}
	for i := 0; i < int(rd.FlipData); i++ {
		if r.flipData() {
			r.damaged = true
		}
	}

	return r.recoverAll(rd)
}

// recoverAll runs every channel's recovery sequentially (channel order is
// part of the deterministic schedule), honouring a mid-recovery re-crash.
func (r *caseRun) recoverAll(rd *Round) bool {
	recrashCh := -1
	if rd.Recrash {
		recrashCh = int(rd.RecrashChan) % r.c.Channels
	}
	ctrls := r.sys.Controllers()
	for ch := 0; ch < len(ctrls); ch++ {
		c := ctrls[ch]
		if ch == recrashCh {
			step := uint64(rd.RecrashStep)
			if step == 0 {
				step = 1
			}
			c.SetFaultHooks(newInjector(memctrl.EvRecoveryStep, step))
			var rrep memctrl.RecoveryReport
			aborted, err := catchRecoveryCrash(func() error {
				rp, e := c.Recover()
				rrep = rp
				return e
			})
			c.SetFaultHooks(nil)
			r.adversarial = true
			if aborted {
				r.recrashes++
				// The machine died again mid-recovery: every channel loses
				// volatile state (including those already recovered) and the
				// whole system recovers from the arbitrary prefix.
				r.sys.Crash()
				ch = -1 // restart the loop; the injector is gone, so no loop
				recrashCh = -2
				continue
			}
			if r.recovered(c, err, &rrep) {
				return true
			}
			continue
		}
		rep, err := c.Recover()
		if r.recovered(c, err, &rep) {
			return true
		}
	}
	r.verify()
	return r.detected == Fail || r.detected == DetectedRuntime
}

// recovered folds one channel's finished recovery pass into the case
// state; true ends the case.
func (r *caseRun) recovered(c *memctrl.Controller, err error, rep *memctrl.RecoveryReport) bool {
	if r.classifyRecovery(err) || r.noteQuarantine(rep) {
		return true
	}
	if r.deepCheck && !r.damaged {
		if err := c.VerifyNVM(); err != nil {
			r.fail(fmt.Sprintf("persisted metadata inconsistent after recovery: %v", err))
			return true
		}
		r.deepOK++
	}
	return false
}

// classifyRecovery maps a recovery error to a verdict; true ends the case.
func (r *caseRun) classifyRecovery(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, memctrl.ErrNoRecovery):
		r.detected = NoRecovery
		return true
	case structuredIntegrity(err):
		if !r.damageExplainsIntegrity() {
			r.fail(fmt.Sprintf("recovery rejected undamaged state: %v", err))
			return true
		}
		r.detected, r.detail = DetectedRecovery, err.Error()
		return true
	case structuredMedia(err):
		if !r.mediaHit {
			r.fail(fmt.Sprintf("recovery reported a media fault on clean media: %v", err))
			return true
		}
		r.detected, r.detail = DetectedRecovery, err.Error()
		return true
	default:
		r.fail(fmt.Sprintf("recovery failed with an unclassified error: %v", err))
		return true
	}
}

// damageExplainsIntegrity reports whether an integrity verdict has a
// legitimate cause. Torn crash writes damage authenticated state too, so
// media faults with tearing count.
func (r *caseRun) damageExplainsIntegrity() bool {
	return r.damaged || r.mediaHit
}

// noteQuarantine folds a successful recovery's degradation report into the
// case state: a quarantine verdict no recorded media evidence supports is
// the detection of replay-shaped damage, and classifies the case even when
// no later read ever touches the fence. true ends the case (quarantining
// genuinely undamaged state is a contract violation).
func (r *caseRun) noteQuarantine(rep *memctrl.RecoveryReport) bool {
	if !rep.Degradation.ReplayShaped() {
		return false
	}
	if !r.damageExplainsIntegrity() {
		r.fail(fmt.Sprintf("recovery quarantined undamaged state: %+v", rep.Degradation.Records))
		return true
	}
	if r.detected == 0 || r.detected == DetectedRuntime {
		for _, rec := range rep.Degradation.Records {
			if !rec.Cause.MediaExplained() {
				r.detected = DetectedQuarantine
				r.detail = fmt.Sprintf("recovery quarantined level %d index %d (cause %s, evidence %s)",
					rec.Node.Level, rec.Node.Index, rec.Cause, rec.Evidence)
				break
			}
		}
	}
	return false
}

// drive executes one workload request against the routed channel,
// maintaining the shadow. false ends the case (contract violation).
func (r *caseRun) drive(op trace.Op) bool {
	r.seq++
	if op.IsWrite {
		data := payload(op.Addr, r.seq)
		err := r.sys.WriteData(op.Gap, op.Addr, data)
		if err == nil {
			r.shadow[op.Addr] = data
			return true
		}
		if structuredMedia(err) || (structuredIntegrity(err) && r.damageExplainsIntegrity()) {
			if !r.mediaHit && structuredMedia(err) {
				r.fail(fmt.Sprintf("write %#x media fault on clean media: %v", op.Addr, err))
				return false
			}
			// The line can no longer be trusted to hold either value.
			delete(r.shadow, op.Addr)
			return true
		}
		r.fail(fmt.Sprintf("write %#x rejected: %v", op.Addr, err))
		return false
	}
	got, err := r.sys.ReadData(op.Gap, op.Addr)
	if err != nil {
		return r.classifyReadError(op.Addr, err)
	}
	if want, seen := r.shadow[op.Addr]; seen && got != want {
		r.fail(fmt.Sprintf("SILENT CORRUPTION: runtime read %#x returned wrong data", op.Addr))
		return false
	}
	return true
}

// driveWrite persists one synthetic write to addr (tamper-target priming).
func (r *caseRun) driveWrite(addr uint64) bool {
	return r.drive(trace.Op{Addr: addr, IsWrite: true, Gap: 1})
}

// classifyReadError folds one failing read into the case state; false ends
// the case.
func (r *caseRun) classifyReadError(addr uint64, err error) bool {
	var qe *memctrl.QuarantineError
	switch {
	case errors.As(err, &qe):
		// The quarantine fence carries its arbitration verdict. NOTE: this
		// arm must precede structuredMedia — QuarantineError unwraps to
		// ErrMediaFault for legacy classification.
		if qe.Cause.MediaExplained() {
			// Media-explained quarantine is bounded degraded loss, and only
			// real media damage may produce it.
			if !r.mediaHit {
				r.fail(fmt.Sprintf("read %#x quarantined on clean media: %v", addr, err))
				return false
			}
			r.mediaLost++
			return true
		}
		// A detection-class fence (replay-shaped, ambiguous) is legitimate
		// whenever any integrity damage landed — scheduled tampers included;
		// quarantining genuinely undamaged state is a contract violation.
		if !r.damageExplainsIntegrity() {
			r.fail(fmt.Sprintf("read %#x quarantined undamaged state: %v", addr, err))
			return false
		}
		if r.detected == 0 || r.detected == DetectedRuntime {
			r.detected, r.detail = DetectedQuarantine, err.Error()
		}
		return true
	case structuredMedia(err):
		if !r.mediaHit {
			r.fail(fmt.Sprintf("read %#x media fault on clean media: %v", addr, err))
			return false
		}
		r.mediaLost++
		return true
	case structuredIntegrity(err):
		if !r.damageExplainsIntegrity() {
			r.fail(fmt.Sprintf("read %#x integrity violation without damage: %v", addr, err))
			return false
		}
		if r.detected < DetectedRuntime {
			r.detected, r.detail = DetectedRuntime, err.Error()
		}
		return true
	default:
		r.fail(fmt.Sprintf("read %#x rejected with an unclassified error: %v", addr, err))
		return false
	}
}

// verify reads back every shadowed line in address order: each must return
// its last-persisted value or fail with a structured, explained error.
func (r *caseRun) verify() {
	for _, addr := range r.sortedShadow() {
		got, err := r.sys.ReadData(1, addr)
		if err != nil {
			if !r.classifyReadError(addr, err) {
				return
			}
			continue
		}
		if got != r.shadow[addr] {
			r.fail(fmt.Sprintf("SILENT CORRUPTION: post-recovery read %#x returned wrong data", addr))
			return
		}
	}
}

// home returns the controller owning a global address the case drove
// (hence valid) and its local address there.
func (r *caseRun) home(addr uint64) (*memctrl.Controller, uint64) {
	ch, local, err := r.sys.Route(addr)
	if err != nil {
		panic(err)
	}
	return r.sys.Controllers()[ch], local
}

func (r *caseRun) sortedShadow() []uint64 {
	addrs := make([]uint64, 0, len(r.shadow))
	for a := range r.shadow {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

func (r *caseRun) fail(detail string) {
	r.detected, r.detail = Fail, detail
}

// tamperTarget resolves a Tamper's target index against the current shadow
// (sorted, so the mapping is deterministic); an empty shadow targets the
// first data line.
func (r *caseRun) tamperTarget(tm Tamper) uint64 {
	addrs := r.sortedShadow()
	if len(addrs) == 0 {
		return 0
	}
	return addrs[int(tm.TargetIdx)%len(addrs)]
}

// flipNode flips one bit in a populated interior SIT node line of an
// execution-RNG-chosen channel, returning whether anything was hit.
func (r *caseRun) flipNode() bool {
	c := r.sys.Controllers()[r.exec.Uint64n(uint64(r.c.Channels))]
	geo := &c.Layout().Geo
	dev := c.Device()
	var addrs []uint64
	for k := 1; k < geo.Levels; k++ {
		for idx := uint64(0); idx < geo.LevelNodes[k]; idx++ {
			a := geo.NodeAddr(k, idx)
			if dev.Peek(a) != (nvmem.Line{}) {
				addrs = append(addrs, a)
			}
		}
	}
	if len(addrs) == 0 {
		return false
	}
	a := addrs[r.exec.Intn(len(addrs))]
	line := dev.Peek(a)
	bit := r.exec.Intn(nvmem.LineSize * 8)
	line[bit/8] ^= 1 << (bit % 8)
	dev.Poke(a, line)
	return true
}

// flipData flips one bit in a shadowed data line.
func (r *caseRun) flipData() bool {
	addrs := r.sortedShadow()
	if len(addrs) == 0 {
		return false
	}
	c, local := r.home(addrs[int(r.exec.Uint64n(uint64(len(addrs))))])
	dev := c.Device()
	line := dev.Peek(local)
	bit := r.exec.Intn(nvmem.LineSize * 8)
	line[bit/8] ^= 1 << (bit % 8)
	dev.Poke(local, line)
	return true
}

// payload derives the deterministic plaintext for the seq-th write to addr.
func payload(addr, seq uint64) [64]byte {
	var b [64]byte
	x := addr ^ seq*0x9e3779b97f4a7c15
	for i := 0; i < 8; i++ {
		b[i*8] = byte(x >> (8 * i))
		b[i*8+1] = byte(seq >> (8 * i))
	}
	return b
}
