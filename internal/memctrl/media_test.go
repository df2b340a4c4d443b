package memctrl_test

import (
	"errors"
	"sort"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/nvmem"
	"steins/internal/scheme/steins"
	"steins/internal/scheme/wb"
	"steins/internal/trace"
)

func faultyTestConfig(mut func(*nvmem.FaultConfig)) memctrl.Config {
	cfg := testConfig(false)
	cfg.NVM.Faults.Seed = 17
	mut(&cfg.NVM.Faults)
	return cfg
}

func TestReadRetryRecoversTransientDoubleBits(t *testing.T) {
	// Every read suffers a flip, 30% of them double-bit (uncorrectable).
	// With transients redrawn per attempt, the 3-retry budget turns almost
	// every uncorrectable event into a success — and never into silently
	// wrong data.
	cfg := faultyTestConfig(func(f *nvmem.FaultConfig) {
		f.TransientPerRead = 1
		f.DoubleBitFrac = 0.3
	})
	c := memctrl.New(cfg, wb.Factory)
	want := pattern(0, 5)
	if err := c.WriteData(0, 0, want); err != nil {
		t.Fatal(err)
	}
	okReads := 0
	for i := 0; i < 200; i++ {
		got, err := c.ReadData(5, 0)
		if err != nil {
			if !errors.Is(err, memctrl.ErrMediaFault) || !errors.Is(err, nvmem.ErrUncorrectable) {
				t.Fatalf("read %d: unstructured media failure: %v", i, err)
			}
			continue
		}
		okReads++
		if got != want {
			t.Fatalf("read %d: silently corrupted data", i)
		}
	}
	st := c.Stats()
	if okReads < 150 {
		t.Fatalf("only %d/200 reads survived the retry budget", okReads)
	}
	if st.MediaRetried == 0 {
		t.Fatal("no retries counted despite forced double-bit events")
	}
	if st.MediaCorrected == 0 {
		t.Fatal("single-bit corrections not mirrored into controller stats")
	}
	if st.MediaUnrecoverable != uint64(200-okReads) {
		t.Fatalf("MediaUnrecoverable = %d, want %d", st.MediaUnrecoverable, 200-okReads)
	}
}

func TestReadEscalatesAfterRetryBudget(t *testing.T) {
	cfg := faultyTestConfig(func(f *nvmem.FaultConfig) {
		f.TransientPerRead = 1
		f.DoubleBitFrac = 1 // every attempt uncorrectable: retries cannot help
	})
	c := memctrl.New(cfg, wb.Factory)
	c.Device().Poke(0, nvmem.Line{1, 2, 3})
	_, _, err := c.ReadLineRetried(0, 0, nvmem.ClassData)
	if !errors.Is(err, memctrl.ErrMediaFault) || !errors.Is(err, nvmem.ErrUncorrectable) {
		t.Fatalf("read error = %v, want MediaFault wrapping ErrUncorrectable", err)
	}
	var mf *memctrl.MediaFault
	if !errors.As(err, &mf) || mf.Quarantined || mf.Addr != 0 {
		t.Fatalf("structured fault = %+v", mf)
	}
	st := c.Stats()
	if st.MediaEscalated != 1 {
		t.Fatalf("MediaEscalated = %d, want 1", st.MediaEscalated)
	}
	if st.MediaRetried != uint64(cfg.ReadRetries) {
		t.Fatalf("MediaRetried = %d, want the full budget %d", st.MediaRetried, cfg.ReadRetries)
	}
}

func TestQuarantinedLeafFailsFast(t *testing.T) {
	c := memctrl.New(testConfig(false), wb.Factory)
	if err := c.WriteData(0, 0, pattern(0, 3)); err != nil {
		t.Fatal(err)
	}
	c.QuarantineLeaf(0)
	var qe *memctrl.QuarantineError
	if _, err := c.ReadData(1, 0); !errors.Is(err, memctrl.ErrMediaFault) {
		t.Fatalf("read of quarantined leaf = %v, want ErrMediaFault", err)
	} else if !errors.As(err, &qe) {
		t.Fatalf("read of quarantined leaf = %v, want *QuarantineError", err)
	} else if qe.Addr != 0 || qe.Leaf != 0 {
		t.Fatalf("quarantine error names wrong target: %+v", qe)
	}
	// A fresh write is the re-admission path: it succeeds and lifts the
	// fence for exactly the written slot; the rest of the leaf stays fenced.
	if werr := c.WriteData(1, 0, pattern(0, 4)); werr != nil {
		t.Fatalf("re-admitting write = %v", werr)
	}
	if got, err := c.ReadData(1, 0); err != nil {
		t.Fatalf("read of re-admitted slot: %v", err)
	} else if got != pattern(0, 4) {
		t.Fatal("re-admitted slot read back wrong data")
	}
	geo := &c.Layout().Geo
	if _, err := c.ReadData(1, geo.DataAddr(0, 1)); !errors.Is(err, memctrl.ErrMediaFault) {
		t.Fatalf("read beside re-admitted slot = %v, want ErrMediaFault", err)
	}
	if st := c.Stats(); st.MediaUnrecoverable != 2 {
		t.Fatalf("MediaUnrecoverable = %d, want 2", st.MediaUnrecoverable)
	}
	// Uncovered addresses are unaffected.
	other := geo.DataAddr(1, 0)
	if err := c.WriteData(1, other, pattern(other, 5)); err != nil {
		t.Fatalf("write outside quarantine: %v", err)
	}
	// Rewriting every covered slot lifts the leaf's quarantine entirely.
	for i := 0; i < int(geo.LeafCover); i++ {
		a := geo.DataAddr(0, i)
		if err := c.WriteData(1, a, pattern(a, 6)); err != nil {
			t.Fatalf("rewrite slot %d: %v", i, err)
		}
	}
	if c.LeafQuarantined(0) {
		t.Fatal("quarantine not lifted after full rewrite")
	}
	if _, err := c.ReadData(1, geo.DataAddr(0, 1)); err != nil {
		t.Fatalf("read after lift: %v", err)
	}
	// The fence is durable on-chip state: a verdict must outlive the
	// crash that follows it, or a fence derived purely from the trust-base
	// shortfall would vanish with the volatile state and the condemned
	// data would read back as authentic.
	c.QuarantineLeaf(1)
	c.Crash()
	if !c.LeafQuarantined(1) {
		t.Fatal("quarantine did not survive the crash")
	}
}

func TestMediaStatsMergeAcrossControllers(t *testing.T) {
	a := memctrl.Stats{MediaCorrected: 1, MediaRetried: 2, MediaEscalated: 3, MediaUnrecoverable: 4}
	b := memctrl.Stats{MediaCorrected: 10, MediaRetried: 20, MediaEscalated: 30, MediaUnrecoverable: 40}
	a.Merge(&b)
	if a.MediaCorrected != 11 || a.MediaRetried != 22 || a.MediaEscalated != 33 || a.MediaUnrecoverable != 44 {
		t.Fatalf("merged media stats wrong: %+v", a)
	}
}

func TestArbitrateFailureSeesDataAddressZero(t *testing.T) {
	// A data-block violation at address 0 must still have its data-line
	// evidence consulted: 0 is a legitimate data address, not a "no data
	// address" sentinel. A torn or uncorrectable line 0 used to arbitrate
	// as ambiguous/replay-shaped, mass-fencing the whole level.
	c := memctrl.New(testConfig(false), wb.Factory)
	if err := c.WriteData(0, 0, pattern(0, 3)); err != nil {
		t.Fatal(err)
	}
	c.Device().CorruptLine(0, nvmem.Line{})
	cause, evidence := c.ArbitrateFailure(0, 0, memctrl.TamperData(0, "test"))
	if cause != memctrl.CauseMediaECC {
		t.Fatalf("ArbitrateFailure(data addr 0) cause = %v, want media-ecc", cause)
	}
	if evidence == "none" || evidence == "" {
		t.Fatalf("ArbitrateFailure(data addr 0) evidence = %q, want recorded evidence", evidence)
	}
}

// TestEccDisabledTransientFlips removes the SECDED layer, so a transient
// flip reaches the controller as silently corrupted bits. The integrity
// machinery is then the only backstop: across crash and recovery rounds,
// every read of the Steins variants must return the block last written or
// fail with a structured tamper, replay or media error, never wrong data.
func TestEccDisabledTransientFlips(t *testing.T) {
	for i, split := range []bool{false, true} {
		name := map[bool]string{false: "Steins-GC", true: "Steins-SC"}[split]
		t.Run(name, func(t *testing.T) {
			const footprint, rounds, ops = 256 << 10, 4, 150
			seed := 200 + uint64(i)
			cfg := memctrl.DefaultConfig(footprint, split)
			cfg.MetaCacheBytes = 4 << 10
			cfg.MetaCacheWays = 4
			cfg.NVM.ECC.Disable = true
			cfg.NVM.Faults = nvmem.FaultConfig{Seed: seed, TransientPerRead: 5e-3, DoubleBitFrac: 0.25}
			c := memctrl.New(cfg, steins.Factory)
			prof, _ := trace.ByName("pers_queue")
			prof.FootprintBytes = footprint
			gen := trace.New(prof, seed, rounds*ops)
			structured := func(err error) bool {
				return errors.Is(err, memctrl.ErrTamper) || errors.Is(err, memctrl.ErrReplay) ||
					errors.Is(err, memctrl.ErrMediaFault)
			}
			shadow := map[uint64][64]byte{}
			caught := 0 // reads the integrity machinery refused
			read := func(gap, addr uint64) {
				got, err := c.ReadData(gap, addr)
				if err != nil && !structured(err) {
					t.Fatalf("read %#x: unstructured error: %v", addr, err)
				}
				if err != nil {
					caught++
				}
				if want, ok := shadow[addr]; err == nil && ok && got != want {
					t.Fatalf("read %#x: silently corrupted data", addr)
				}
			}
			for round := 0; round < rounds; round++ {
				for n := 0; n < ops; n++ {
					op, _ := gen.Next()
					if !op.IsWrite {
						read(op.Gap, op.Addr)
						continue
					}
					data := pattern(op.Addr, byte(round*ops+n))
					switch err := c.WriteData(op.Gap, op.Addr, data); {
					case err == nil:
						shadow[op.Addr] = data
					case structured(err):
						delete(shadow, op.Addr) // the line may hold either value
					default:
						t.Fatalf("write %#x: unstructured error: %v", op.Addr, err)
					}
				}
				c.Crash()
				if _, err := c.Recover(); err != nil {
					if !structured(err) {
						t.Fatalf("round %d: recovery failed unstructured: %v", round, err)
					}
					t.Logf("round %d: recovery rejected the damaged state: %v", round, err)
					return
				}
				addrs := make([]uint64, 0, len(shadow))
				for a := range shadow {
					addrs = append(addrs, a)
				}
				sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
				for _, a := range addrs {
					read(1, a)
				}
			}
			if c.Device().Stats().Faults.TransientFlips == 0 || caught == 0 {
				t.Fatalf("%d bits flipped, %d reads refused: the backstop was never exercised",
					c.Device().Stats().Faults.TransientFlips, caught)
			}
		})
	}
}
