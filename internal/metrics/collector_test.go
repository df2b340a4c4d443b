package metrics

import "testing"

func TestCollectorDefaults(t *testing.T) {
	c := NewCollector(Options{})
	if o := c.Options(); o.SampleEvery != 256 || o.RingCap != 4096 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestCollectorRecordCadence(t *testing.T) {
	c := NewCollector(Options{SampleEvery: 4, RingCap: 8})
	bd := Breakdown{}
	bd[PhaseCrypto] = 10
	due := 0
	for i := 1; i <= 12; i++ {
		if c.Record(i%2 == 0, &bd) {
			due++
			if i%4 != 0 {
				t.Fatalf("probe due at op %d, want multiples of 4", i)
			}
		}
	}
	if due != 3 {
		t.Fatalf("probes due = %d, want 3", due)
	}
	// 6 reads and 6 writes each touched PhaseCrypto; zero-cycle phases
	// are not recorded.
	if got := c.PhaseHist(false, PhaseCrypto).Count(); got != 6 {
		t.Fatalf("read crypto count = %d, want 6", got)
	}
	if got := c.PhaseHist(true, PhaseCrypto).Count(); got != 6 {
		t.Fatalf("write crypto count = %d, want 6", got)
	}
	if got := c.PhaseHist(false, PhaseNVMRead).Count(); got != 0 {
		t.Fatalf("untouched phase count = %d, want 0", got)
	}
}

func TestCollectorRingOverwrite(t *testing.T) {
	c := NewCollector(Options{SampleEvery: 1, RingCap: 3})
	for i := uint64(1); i <= 5; i++ {
		c.AddSample(Sample{Op: i})
	}
	if c.SamplesTaken() != 5 {
		t.Fatalf("taken = %d", c.SamplesTaken())
	}
	got := c.Samples()
	if len(got) != 3 {
		t.Fatalf("retained = %d, want 3", len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Op != want {
			t.Fatalf("sample %d = op %d, want %d (chronological order)", i, got[i].Op, want)
		}
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector(Options{SampleEvery: 1, RingCap: 4})
	bd := Breakdown{}
	bd[PhaseVerify] = 3
	c.Record(false, &bd)
	c.AddSample(Sample{Op: 1})
	c.Reset()
	if c.SamplesTaken() != 0 || len(c.Samples()) != 0 {
		t.Fatal("samples survived reset")
	}
	if c.PhaseHist(false, PhaseVerify).Count() != 0 {
		t.Fatal("histograms survived reset")
	}
	// The cadence counter restarts too.
	if c.Record(false, &bd) != true {
		t.Fatal("cadence counter not reset")
	}
}

// TestRestoreCollector pins the collector's restore: a captured ring
// (full and rotated, or partly filled) comes back rotating exactly where
// it left off, and a state no collector could have captured is refused
// without allocating the ring it names.
func TestRestoreCollector(t *testing.T) {
	c := NewCollector(Options{SampleEvery: 1, RingCap: 3})
	for i := 0; i < 5; i++ {
		c.AddSample(Sample{Op: uint64(i)})
	}
	back, err := RestoreCollector(c.State())
	if err != nil {
		t.Fatal(err)
	}
	c.AddSample(Sample{Op: 5})
	back.AddSample(Sample{Op: 5})
	if got, want := back.Samples(), c.Samples(); len(got) != 3 || got[0].Op != want[0].Op || got[2].Op != 5 {
		t.Fatalf("restored ring rotates to %+v, want %+v", got, want)
	}
	partial := NewCollector(Options{SampleEvery: 1, RingCap: 3})
	partial.AddSample(Sample{Op: 1})
	back, err = RestoreCollector(partial.State())
	if err != nil {
		t.Fatal(err)
	}
	back.AddSample(Sample{Op: 2})
	back.AddSample(Sample{Op: 3})
	back.AddSample(Sample{Op: 4})
	if got := back.Samples(); len(got) != 3 || got[0].Op != 2 || got[2].Op != 4 {
		t.Fatalf("partly filled ring grows to %+v", got)
	}
	for name, st := range map[string]CollectorState{
		"options not defaulted": {Opt: Options{RingCap: 3}},
		"ring past its capacity": {Opt: Options{SampleEvery: 1, RingCap: 1},
			Ring: make([]Sample, 2)},
		"cursor off a full ring": {Opt: Options{SampleEvery: 1, RingCap: 1},
			Ring: make([]Sample, 1), Next: 1},
		"cursor in a filling ring": {Opt: Options{SampleEvery: 1, RingCap: 4},
			Ring: make([]Sample, 2), Next: 1},
		"huge capacity, cursor off": {Opt: Options{SampleEvery: 1, RingCap: 1 << 62}, Next: 3},
		"negative capacity":         {Opt: Options{SampleEvery: 1, RingCap: -1}},
	} {
		if _, err := RestoreCollector(st); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
	if _, err := RestoreCollector(CollectorState{Opt: Options{SampleEvery: 1, RingCap: 1 << 62}}); err != nil {
		t.Fatalf("an empty ring of a huge capacity: %v", err)
	}
}
