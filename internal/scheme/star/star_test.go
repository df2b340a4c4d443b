package star_test

import (
	"errors"
	"fmt"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/schemetest"
	"steins/internal/scheme/star"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/wb"
)

func TestConformance(t *testing.T) {
	t.Run("RoundTrip", func(t *testing.T) { schemetest.RunRoundTrip(t, star.Factory, false) })
	t.Run("CrashRecover", func(t *testing.T) { schemetest.RunCrashRecover(t, star.Factory, false) })
	t.Run("ForceAllDirty", func(t *testing.T) { schemetest.RunForceAllDirtyRecover(t, star.Factory, false) })
	t.Run("RuntimeTamper", func(t *testing.T) { schemetest.RunRuntimeTamperDetected(t, star.Factory) })
	t.Run("DataReplay", func(t *testing.T) { schemetest.RunRecoveryDetectsDataReplay(t, star.Factory) })
	t.Run("Determinism", func(t *testing.T) { schemetest.RunDeterminism(t, star.Factory, false) })
	t.Run("SparseCache", func(t *testing.T) { schemetest.RunSparseCacheRecover(t, star.Factory, false) })
}

func TestBitmapTrafficBetweenWBAndASIT(t *testing.T) {
	// §II-D/§IV-B shape: STAR writes more than WB (bitmap lines, both
	// transition directions) but far less than ASIT's shadow table.
	// A 2-line tracking cache forces bitmap line churn (at full scale the
	// bitmap spans far more lines than the controller can hold).
	tight := func() memctrl.Config {
		cfg := schemetest.Config(false)
		cfg.RecordCacheLines = 2
		cfg.AuxCacheWays = 2
		return cfg
	}
	run := func(f memctrl.PolicyFactory) uint64 {
		c := memctrl.New(tight(), f)
		schemetest.Workload(t, c, 4000, 9)
		return c.Device().Stats().TotalWrites()
	}
	wbW, starW := run(wb.Factory), run(star.Factory)
	if starW <= wbW {
		t.Fatalf("STAR writes (%d) not above WB (%d)", starW, wbW)
	}
	c := memctrl.New(tight(), star.Factory)
	schemetest.Workload(t, c, 4000, 9)
	if c.Device().Stats().Writes[nvmem.ClassBitmap] == 0 {
		t.Fatal("no bitmap write-backs recorded")
	}
}

func TestBitmapUpdatedBothDirections(t *testing.T) {
	// Steins updates records only on clean->dirty; STAR also pays for
	// dirty->clean. With identical workloads STAR's tracking traffic
	// (bitmap) should exceed Steins' (records).
	run := func(f memctrl.PolicyFactory, cls nvmem.Class) uint64 {
		cfg := schemetest.Config(false)
		cfg.RecordCacheLines = 2
		cfg.AuxCacheWays = 2
		c := memctrl.New(cfg, f)
		schemetest.Workload(t, c, 6000, 9)
		s := c.Device().Stats()
		return s.Reads[cls] + s.Writes[cls]
	}
	starOps := run(star.Factory, nvmem.ClassBitmap)
	steinsOps := run(steins.Factory, nvmem.ClassRecord)
	if starOps <= steinsOps {
		t.Fatalf("STAR bitmap ops (%d) not above Steins record ops (%d)", starOps, steinsOps)
	}
}

func TestLSBStoredOnEviction(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), star.Factory)
	schemetest.Workload(t, c, 3000, 3)
	p := c.Policy().(*star.Policy)
	found := false
	for idx := uint64(0); idx < c.Layout().Geo.LevelNodes[0] && !found; idx++ {
		_, found = p.LSB(0, idx)
	}
	if !found {
		t.Fatal("no parent-counter LSBs stored after eviction churn")
	}
}

func TestRecoveryDetectsErasedBitmap(t *testing.T) {
	// Zeroing the bitmap unmarks dirty nodes; the recomputed set-MACs no
	// longer match the surviving cache-tree root.
	c := memctrl.New(schemetest.Config(false), star.Factory)
	schemetest.Workload(t, c, 4000, 11)
	c.Crash()
	lay := c.Layout()
	for li := uint64(0); li < lay.BitmapLines(); li++ {
		c.Device().Poke(lay.BitmapBase+li*64, nvmem.Line{})
	}
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover with erased bitmap = %v, want ErrReplay", err)
	}
}

func TestRecoveryDetectsSpuriousBitmapBits(t *testing.T) {
	// Setting extra bits adds nodes to the recovered set; the set-MACs
	// diverge from the root (STAR, unlike Steins, authenticates the exact
	// dirty membership).
	c := memctrl.New(schemetest.Config(false), star.Factory)
	schemetest.Workload(t, c, 4000, 13)
	c.Crash()
	lay := c.Layout()
	line := c.Device().Peek(lay.BitmapBase)
	line[0] |= 0x01 // mark node offset 0 dirty
	if got := c.Device().Peek(lay.BitmapBase); got == line {
		t.Skip("offset 0 already dirty")
	}
	c.Device().Poke(lay.BitmapBase, line)
	if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
		t.Fatalf("recover with spurious bitmap bits = %v, want ErrReplay", err)
	}
}

func TestStorageOverheadSTAR(t *testing.T) {
	c := memctrl.New(schemetest.Config(false), star.Factory)
	s := c.Policy().Storage()
	// §IV-E: 8 B per 8-way set = 1/64 of the metadata cache.
	if s.CacheTaxBytes != uint64(c.Config().MetaCacheBytes)/64 {
		t.Fatalf("cache tax %d, want 1/64 of cache", s.CacheTaxBytes)
	}
	if s.NVMExtraBytes != c.Layout().BitmapBytes {
		t.Fatalf("bitmap bytes %d", s.NVMExtraBytes)
	}
}

func TestMultiLayerBitmapPrunesRecoveryScan(t *testing.T) {
	// §II-D's multi-layer bitmap: with a tiny dirty set in a big tree, the
	// recovery scan reads only L1 lines plus the few marked L0 lines — far
	// fewer than the full first layer.
	cfg := memctrl.DefaultConfig(64<<20, false) // big tree: many bitmap lines
	cfg.MetaCacheBytes = 8 << 10
	c := memctrl.New(cfg, star.Factory)
	for i := uint64(0); i < 16; i++ {
		if err := c.WriteData(5, i*64, schemetest.Pattern(i*64, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	fullL0 := c.Layout().L1BitmapOffset / 64
	if rep.NVMReads >= fullL0 {
		t.Fatalf("recovery scan read %d lines; unpruned L0 alone is %d", rep.NVMReads, fullL0)
	}
}

// treeRoot reads the cache-tree's on-chip root out of the scheme's state.
func treeRoot(t *testing.T, c *memctrl.Controller) uint64 {
	t.Helper()
	blob, err := c.Policy().(*star.Policy).SaveState()
	if err != nil {
		t.Fatal(err)
	}
	var st star.State
	if err := memctrl.DecodePolicyState(blob, &st); err != nil {
		t.Fatal(err)
	}
	return st.Root
}

// TestSmallCacheTreeRootAuthenticates pins the cache-tree at metadata
// caches of 8 sets or fewer, where the set-MACs are the tree's only level:
// the root must still move with the dirty set, and an erased bitmap must
// still fail recovery on the root.
func TestSmallCacheTreeRootAuthenticates(t *testing.T) {
	for _, kib := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("%dKiB", kib), func(t *testing.T) {
			cfg := memctrl.DefaultConfig(1<<20, false)
			cfg.MetaCacheBytes = kib << 10
			cfg.MetaCacheWays = 8
			c := memctrl.New(cfg, star.Factory)
			before := treeRoot(t, c)
			for i := uint64(0); i < 300; i++ {
				addr := i * 4096 % cfg.DataBytes
				if err := c.WriteData(5, addr, schemetest.Pattern(addr, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if treeRoot(t, c) == before {
				t.Errorf("%d sets: cache-tree root unchanged after 300 writes", c.Meta().Sets())
			}
			c.Crash()
			lay := c.Layout()
			for li := uint64(0); li < lay.BitmapLines(); li++ {
				c.Device().Poke(lay.BitmapBase+li*64, nvmem.Line{})
			}
			if _, err := c.Recover(); !errors.Is(err, memctrl.ErrReplay) {
				t.Fatalf("%d sets: recover with erased bitmap = %v, want ErrReplay", c.Meta().Sets(), err)
			}
		})
	}
}
