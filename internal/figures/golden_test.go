// The golden comparison builds only without -race, like the allocation
// ceilings: the race detector cannot change the bytes compared, and it
// slows the full Quick-scale sweep about tenfold. `go test ./...` runs it.

//go:build !race

package figures

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steins/internal/sim"
	"steins/internal/stats"
	"steins/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.json from the current code")

// quickJSON renders every table at Quick scale exactly as
// `benchfigs -format json` prints them: one indented JSON document per
// table, in the command's order.
func quickJSON() ([]byte, error) {
	sc := Quick()
	sc.Channels = 1
	iv, err := trace.ParseInterleave("line")
	if err != nil {
		return nil, err
	}
	sc.Interleave = iv
	tabs := []*stats.Table{TableI()}
	gc, err := GCSweep(sc)
	if err != nil {
		return nil, err
	}
	tabs = append(tabs, Fig9(gc), Fig10(gc), Fig11(gc), Fig13(gc), Fig15(gc))
	scs, err := SCSweep(sc)
	if err != nil {
		return nil, err
	}
	tabs = append(tabs, Fig12(scs), Fig14(scs), Fig16(scs))
	f17, err := Fig17(sc)
	if err != nil {
		return nil, err
	}
	abl, err := AblationTable(sc)
	if err != nil {
		return nil, err
	}
	tabs = append(tabs, f17, abl, StorageTable(), OverflowTable())
	var out bytes.Buffer
	for _, t := range tabs {
		data, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return nil, err
		}
		out.Write(data)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// TestQuickGolden pins every simulated figure value: the Quick-scale
// tables must match testdata/quick.json byte for byte, so a one-cycle
// change to any scheme's write or recovery cost fails here. The file is
// rewritten only by `go test ./internal/figures -run QuickGolden -update`,
// and a rewrite needs a CHANGES.md line that says why the figures moved.
func TestQuickGolden(t *testing.T) {
	got, err := quickJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick.json", got)
}

// schemeCosts reports, for every scheme, the exact simulated cost of a
// short pers_hash run and of recovering a 16 KiB all-dirty metadata
// cache. The figures leave out the write paths of SCUE, PipeSIT and Triad
// and the recovery of SCUE and PipeSIT; this table pins them too.
func schemeCosts() ([]byte, error) {
	prof, _ := trace.ByName("pers_hash")
	var b strings.Builder
	for _, name := range []string{"WB-GC", "WB-SC", "ASIT", "STAR", "Steins-GC", "Steins-SC",
		"SCUE-GC", "SCUE-SC", "PipeSIT-GC", "PipeSIT-SC", "Triad-GC", "Triad-SC"} {
		s, ok := sim.SchemeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
		sres, err := sim.RunSharded(prof, s, sim.Options{Ops: 5000, Seed: 1}, sim.ShardOptions{})
		if err != nil {
			return nil, err
		}
		r := sres.Merged
		fmt.Fprintf(&b, "%-10s exec %d cycles, write %.4f, read %.4f, %d NVM writes", name,
			r.ExecCycles, r.AvgWriteLat, r.AvgReadLat, r.NVM.TotalWrites())
		if rep, err := sim.RecoveryAtCacheSize(s, 16<<10, 1); err != nil {
			fmt.Fprintf(&b, "; recovery: %v\n", err)
		} else {
			fmt.Fprintf(&b, "; recovery %.1f ns, %d NVM reads, %d MACs\n", rep.TimeNS, rep.NVMReads, rep.MACOps)
		}
	}
	return []byte(b.String()), nil
}

// TestSchemeCostGolden pins schemeCosts against testdata/schemes.txt, under
// the same -update rule as TestQuickGolden.
func TestSchemeCostGolden(t *testing.T) {
	got, err := schemeCosts()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "schemes.txt", got)
}

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("simulated costs drifted from %s (rerun with -update only if the change is intended): %s",
			path, firstDiff(got, want))
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
