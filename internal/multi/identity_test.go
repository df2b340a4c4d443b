package multi_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/nvmem"
	"steins/internal/rng"
	"steins/internal/scheme/schemetest"
)

// identityEngine is the surface shared by a bare controller and a
// one-channel system, so both run the same script.
type identityEngine interface {
	WriteData(gap, addr uint64, data [64]byte) error
	ReadData(gap, addr uint64) ([64]byte, error)
	Crash()
	Recover() (memctrl.RecoveryReport, error)
}

// identityTranscript is everything the identity test compares.
type identityTranscript struct {
	Stats     memctrl.Stats
	Exec      uint64
	Device    nvmem.Stats
	Wear      nvmem.Wear
	Report    memctrl.RecoveryReport
	RecErr    string
	Reads     [][64]byte
	ReadErrs  []string
	PostStats memctrl.Stats
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// recoverySentinel names the sentinel a recovery error matches, so the
// comparison does not depend on how an engine wraps it.
func recoverySentinel(err error) string {
	for _, s := range []error{memctrl.ErrNoRecovery, memctrl.ErrTamper, memctrl.ErrReplay} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return errString(err)
}

// runIdentityScript drives one seeded read/write stream with random gaps,
// crashes, recovers and reads every line back.
func runIdentityScript(e identityEngine, ctrl func() *memctrl.Controller, dataBytes uint64) identityTranscript {
	r := rng.New(41)
	lines := dataBytes / 64
	for i := 0; i < 4000; i++ {
		addr := r.Uint64n(lines) * 64
		gap := 1 + r.Uint64n(40)
		if r.Uint64n(10) < 6 {
			if err := e.WriteData(gap, addr, pattern(addr, byte(i))); err != nil {
				panic(err)
			}
		} else if _, err := e.ReadData(gap, addr); err != nil {
			panic(err)
		}
	}
	var tr identityTranscript
	c := ctrl()
	tr.Stats, tr.Exec = c.Stats(), c.ExecCycles()
	tr.Device, tr.Wear = c.Device().Stats(), c.Device().WearStats()
	e.Crash()
	rep, err := e.Recover()
	if err != nil {
		// A failed recovery's aggregate covers no controller; the bare
		// controller still echoes its scheme label. Compare the work.
		rep.Scheme = ""
	}
	tr.Report, tr.RecErr = rep, recoverySentinel(err)
	for a := uint64(0); a < dataBytes; a += 64 {
		got, rerr := e.ReadData(1, a)
		tr.Reads = append(tr.Reads, got)
		tr.ReadErrs = append(tr.ReadErrs, errString(rerr))
	}
	tr.PostStats = c.Stats()
	return tr
}

// TestOneChannelMatchesBareController pins the single-channel identity the
// public API rests on: a one-controller System is bit-identical to the
// bare controller it wraps for every scheme — statistics, makespan,
// device traffic, wear, the recovery report and every read after a crash.
func TestOneChannelMatchesBareController(t *testing.T) {
	const dataBytes = 256 << 10
	for _, s := range schemetest.Schemes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			cfg := memctrl.DefaultConfig(dataBytes, s.Split)
			cfg.MetaCacheBytes = 8 << 10
			bare := memctrl.New(cfg, s.Factory)
			sys := multi.New(1, cfg, s.Factory, 64)
			want := runIdentityScript(bare, func() *memctrl.Controller { return bare }, dataBytes)
			got := runIdentityScript(sys, func() *memctrl.Controller { return sys.Controllers()[0] }, dataBytes)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("one-channel system diverges from the bare controller:\n%s", firstDiff(want, got))
			}
		})
	}
}

// firstDiff names the first transcript field that differs.
func firstDiff(a, b identityTranscript) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			name := va.Type().Field(i).Name
			if name == "Reads" || name == "ReadErrs" {
				return name + " differ"
			}
			return fmt.Sprintf("%s: bare %+v, system %+v", name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return "no field differs"
}
