package pipesit_test

import (
	"errors"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/scheme/pipesit"
	"steins/internal/scheme/schemetest"
)

func TestConformance(t *testing.T) {
	t.Run("RoundTripGC", func(t *testing.T) { schemetest.RunRoundTrip(t, pipesit.Factory, false) })
	t.Run("RoundTripSC", func(t *testing.T) { schemetest.RunRoundTrip(t, pipesit.Factory, true) })
	t.Run("CrashRecoverGC", func(t *testing.T) { schemetest.RunCrashRecover(t, pipesit.Factory, false) })
	t.Run("CrashRecoverSC", func(t *testing.T) { schemetest.RunCrashRecover(t, pipesit.Factory, true) })
	t.Run("ForceAllDirty", func(t *testing.T) { schemetest.RunForceAllDirtyRecover(t, pipesit.Factory, false) })
	t.Run("RuntimeTamper", func(t *testing.T) { schemetest.RunRuntimeTamperDetected(t, pipesit.Factory) })
	t.Run("DataReplay", func(t *testing.T) { schemetest.RunRecoveryDetectsDataReplay(t, pipesit.Factory) })
	t.Run("Determinism", func(t *testing.T) { schemetest.RunDeterminism(t, pipesit.Factory, false) })
	t.Run("SparseCache", func(t *testing.T) { schemetest.RunSparseCacheRecover(t, pipesit.Factory, false) })
}

func TestPipelineCoalescesSameNode(t *testing.T) {
	// Two flushes of the same child before its update retires must occupy
	// ONE pipeline slot holding the newest counter — the coalescing that
	// merges both updates into one parent MAC recomputation.
	c := memctrl.New(schemetest.Config(false), pipesit.Factory)
	p := c.Policy().(*pipesit.Policy)
	if err := c.WriteData(1, 0, schemetest.Pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Meta().Probe(c.Layout().Geo.NodeAddr(0, 0))
	if !ok {
		t.Fatal("leaf 0 not cached after write")
	}
	first := e.Payload
	if _, err := c.Policy().EvictDirty(first); err != nil {
		t.Fatal(err)
	}
	want1 := first.FValue()
	got, ok := p.ParentCounterOverride(0, 0)
	if !ok || got != want1 {
		t.Fatalf("pending update after first flush = %d,%v, want %d,true", got, ok, want1)
	}
	depth := p.PipelineLen()
	if err := c.WriteData(1, 0, schemetest.Pattern(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Policy().EvictDirty(e.Payload); err != nil {
		t.Fatal(err)
	}
	want2 := e.Payload.FValue()
	if want2 == want1 {
		t.Fatal("second flush did not advance the counter; test is vacuous")
	}
	got, ok = p.ParentCounterOverride(0, 0)
	if !ok || got != want2 {
		t.Fatalf("pending update after re-flush = %d,%v, want coalesced %d,true", got, ok, want2)
	}
	if p.PipelineLen() != depth {
		t.Fatalf("re-flush grew the pipeline %d -> %d; must coalesce in place", depth, p.PipelineLen())
	}
}

func TestRecoveryRootTracksLeafIncrements(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), pipesit.Factory)
	p := c.Policy().(*pipesit.Policy)
	for i := 0; i < 10; i++ {
		if err := c.WriteData(1, uint64(i)*64, schemetest.Pattern(uint64(i)*64, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if p.RecoveryRoot() != 10 {
		t.Fatalf("recovery register = %d after 10 writes, want 10", p.RecoveryRoot())
	}
}

func TestRecoveryDetectsRootMismatch(t *testing.T) {
	// Data-block replay lowers the reconstructed leaf sum below the
	// register, exactly as in SCUE (pipesit shares the rebuild).
	c := memctrl.New(schemetest.Config(false), pipesit.Factory)
	if err := c.WriteData(1, 0, schemetest.Pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	old := c.Device().Peek(0)
	oldTag := c.Tag(0)
	if err := c.WriteData(1, 0, schemetest.Pattern(0, 2)); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	c.Device().Poke(0, old)
	c.SetTag(0, oldTag)
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover after replay = %v, want ErrReplay", err)
	}
}

func TestRecoveryClearsPipeline(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), pipesit.Factory)
	p := c.Policy().(*pipesit.Policy)
	for i := 0; i < 400; i++ {
		addr := (uint64(i) * 64) % (32 << 10)
		if err := c.WriteData(1, addr, schemetest.Pattern(addr, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.ForceAllDirty()
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if p.PipelineLen() != 0 {
		t.Fatalf("pipeline holds %d updates after recovery, want 0", p.PipelineLen())
	}
	if err := c.VerifyNVM(); err != nil {
		t.Fatalf("tree inconsistent after recovery: %v", err)
	}
}

func TestStorageOverheadPipeSIT(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), pipesit.Factory)
	s := c.Policy().Storage()
	want := uint64(8 + c.Config().NVBufferBytes)
	if s.OnChipNVBytes != want || s.NVMExtraBytes != 0 || s.CacheTaxBytes != 0 {
		t.Fatalf("pipesit overhead %+v, want OnChipNV %d (register + pipeline)", s, want)
	}
}
