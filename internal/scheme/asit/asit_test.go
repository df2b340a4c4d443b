package asit_test

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/asit"
	"steins/internal/scheme/schemetest"
	"steins/internal/scheme/wb"
)

func TestConformance(t *testing.T) {
	t.Run("RoundTrip", func(t *testing.T) { schemetest.RunRoundTrip(t, asit.Factory, false) })
	t.Run("CrashRecover", func(t *testing.T) { schemetest.RunCrashRecover(t, asit.Factory, false) })
	t.Run("ForceAllDirty", func(t *testing.T) { schemetest.RunForceAllDirtyRecover(t, asit.Factory, false) })
	t.Run("RuntimeTamper", func(t *testing.T) { schemetest.RunRuntimeTamperDetected(t, asit.Factory) })
	t.Run("DataReplay", func(t *testing.T) { schemetest.RunRecoveryDetectsDataReplay(t, asit.Factory) })
	t.Run("Determinism", func(t *testing.T) { schemetest.RunDeterminism(t, asit.Factory, false) })
	t.Run("SparseCache", func(t *testing.T) { schemetest.RunSparseCacheRecover(t, asit.Factory, false) })
}

func TestShadowTableDoubleWrites(t *testing.T) {
	// §II-D: ASIT incurs ~2x memory writes versus WB because every
	// metadata modification also writes a shadow slot.
	run := func(f memctrl.PolicyFactory) nvmem.Stats {
		c := memctrl.New(schemetest.Config(false), f)
		schemetest.Workload(t, c, 4000, 9)
		return c.Device().Stats()
	}
	sWB, sASIT := run(wb.Factory), run(asit.Factory)
	if sASIT.Writes[nvmem.ClassShadow] == 0 {
		t.Fatal("no shadow writes recorded")
	}
	ratio := float64(sASIT.TotalWrites()) / float64(sWB.TotalWrites())
	if ratio < 1.5 {
		t.Fatalf("ASIT/WB write ratio %.2f, want >= 1.5 (paper: ~2x)", ratio)
	}
}

func TestRecoveryDetectsTamperedShadowSlot(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), asit.Factory)
	schemetest.Workload(t, c, 3000, 11)
	c.Crash()
	lay := c.Layout()
	// Corrupt a populated shadow slot: cache-tree root mismatch.
	for s := uint64(0); s*64 < lay.ShadowBytes; s++ {
		addr := lay.ShadowBase + s*64
		line := c.Device().Peek(addr)
		if line == (nvmem.Line{}) {
			continue
		}
		line[5] ^= 1
		c.Device().Poke(addr, line)
		break
	}
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) && !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("recover after shadow tamper = %v, want integrity error", err)
	}
}

func TestRecoveryDetectsReplayedShadowTable(t *testing.T) {
	// Snapshot the whole shadow region early, let the system advance, then
	// restore the old region after the crash: root mismatch.
	c := memctrl.New(schemetest.Config(false), asit.Factory)
	schemetest.Workload(t, c, 1500, 13)
	lay := c.Layout()
	snapshot := make(map[uint64]nvmem.Line)
	for s := uint64(0); s*64 < lay.ShadowBytes; s++ {
		addr := lay.ShadowBase + s*64
		snapshot[addr] = c.Device().Peek(addr)
	}
	schemetest.Workload(t, c, 1500, 14)
	c.Crash()
	for addr, line := range snapshot {
		c.Device().Poke(addr, line)
	}
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) && !errors.Is(err, memctrl.ErrTamper) {
		t.Fatalf("recover after shadow replay = %v, want integrity error", err)
	}
}

func TestRecoveryFastButWriteHeavy(t *testing.T) {
	// Fig. 17's shape: ASIT recovery reads exactly one shadow slot per
	// cache line and restores with writes — reads bounded by cache size.
	c := memctrl.New(schemetest.Config(false), asit.Factory)
	schemetest.Workload(t, c, 4000, 15)
	c.ForceAllDirty()
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	slots := uint64(c.Meta().Capacity())
	if rep.NVMReads < slots || rep.NVMReads > slots*2 {
		t.Fatalf("ASIT recovery reads = %d, want ~%d (one per shadow slot)", rep.NVMReads, slots)
	}
	if rep.NVMWrites == 0 {
		t.Fatal("ASIT recovery restored nothing")
	}
}

func TestStorageOverheadASIT(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), asit.Factory)
	s := c.Policy().Storage()
	if s.NVMExtraBytes != uint64(c.Config().MetaCacheBytes) {
		t.Fatalf("shadow table %d bytes, want cache-sized %d", s.NVMExtraBytes, c.Config().MetaCacheBytes)
	}
	// §IV-E: 8 B HMAC per 64 B cache line = 1/8 cache tax.
	if s.CacheTaxBytes != uint64(c.Config().MetaCacheBytes)/8 {
		t.Fatalf("cache tax %d, want 1/8 of cache", s.CacheTaxBytes)
	}
}

func TestShadowSlotsConcentrateWear(t *testing.T) {
	// §I motivates NVM's limited write endurance; ASIT's per-cache-line
	// shadow slots absorb one write per modification, so the hottest
	// shadow line wears far faster than any data line under WB.
	run := func(f memctrl.PolicyFactory) (uint64, uint64) {
		c := memctrl.New(schemetest.Config(false), f)
		schemetest.Workload(t, c, 6000, 21)
		w := c.Device().WearStats()
		return w.MaxPerLine, w.TotalWrites
	}
	wbMax, wbTotal := run(wb.Factory)
	asitMax, asitTotal := run(asit.Factory)
	if asitTotal < wbTotal*3/2 {
		t.Fatalf("ASIT total wear %d not well above WB %d", asitTotal, wbTotal)
	}
	if asitMax <= wbMax {
		t.Fatalf("ASIT hottest line (%d writes) not hotter than WB's (%d)", asitMax, wbMax)
	}
}

// degradedMismatch runs a degraded recovery whose cache-tree root fails:
// one populated shadow slot has a counter byte flipped after the crash.
func degradedMismatch(t *testing.T) memctrl.RecoveryReport {
	t.Helper()
	cfg := schemetest.Config(false)
	cfg.DegradedRecovery = true
	c := memctrl.New(cfg, asit.Factory)
	schemetest.Workload(t, c, 3000, 11)
	c.Crash()
	lay := c.Layout()
	for s := uint64(0); s*64 < lay.ShadowBytes; s++ {
		addr := lay.ShadowBase + s*64
		line := c.Device().Peek(addr)
		if line == (nvmem.Line{}) {
			continue
		}
		line[5] ^= 1
		c.Device().Poke(addr, line)
		break
	}
	rep, err := c.Recover()
	if err != nil {
		t.Fatalf("degraded recover = %v, want a quarantine report", err)
	}
	return rep
}

// TestDegradedQuarantineOrder pins that a degraded root-mismatch recovery
// quarantines the recorded nodes in the same order on every run: levels
// ascending, indices ascending within a level.
func TestDegradedQuarantineOrder(t *testing.T) {
	first, second := degradedMismatch(t).Degradation, degradedMismatch(t).Degradation
	if len(first.Quarantined) < 2 {
		t.Fatalf("%d nodes quarantined, want several", len(first.Quarantined))
	}
	if !slices.Equal(first.Quarantined, second.Quarantined) {
		t.Fatalf("quarantine order differs between runs:\n%v\n%v", first.Quarantined, second.Quarantined)
	}
	if !slices.IsSortedFunc(first.Quarantined, func(a, b memctrl.NodeRef) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Index, b.Index))
	}) {
		t.Fatalf("quarantine order not ascending per level: %v", first.Quarantined)
	}
}
