package multi_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/scheme/steins"
	"steins/internal/trace"
)

func replayPayload(addr uint64, i int) [64]byte {
	var b [64]byte
	binary.LittleEndian.PutUint64(b[:8], addr)
	binary.LittleEndian.PutUint64(b[8:16], uint64(i))
	return b
}

// TestReplayMatchesSplitterDrive pins the contract between the two
// interleaving implementations: routing a stream through multi.System
// sequentially (Replay) and splitting the same stream with trace.Splitter
// then driving standalone controllers must be indistinguishable — same
// per-controller stats, same makespans, same device traffic. The sharded
// engine's determinism rests on this equivalence.
func TestReplayMatchesSplitterDrive(t *testing.T) {
	const (
		n          = 4
		interleave = uint64(4096)
	)
	prof := trace.Profile{
		Name:           "replay-x",
		FootprintBytes: 512 << 10,
		WriteFrac:      0.5,
		GapMean:        9,
		Pattern:        trace.Uniform,
	}
	tmpl := template() // 1 MB per controller, 8 KB cache

	// Reference: the multi-DIMM system replays the stream sequentially.
	sys := multi.New(n, tmpl, steins.Factory, interleave)
	ops, err := sys.Replay(trace.New(prof, 77, 6000), replayPayload)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 6000 {
		t.Fatalf("replayed %d ops, want 6000", ops)
	}

	// Candidate: split the same stream, drive isolated controllers.
	ctrls := make([]*memctrl.Controller, n)
	for i := range ctrls {
		ctrls[i] = memctrl.New(tmpl, steins.Factory)
	}
	sp := trace.NewSplitter(trace.New(prof, 77, 6000), n, trace.InterleavePage)
	for {
		batches, cnt, serr := sp.NextEpoch(512)
		if serr != nil {
			t.Fatal(serr)
		}
		if cnt == 0 {
			break
		}
		for k, batch := range batches {
			for _, op := range batch {
				if op.IsWrite {
					err = ctrls[k].WriteData(op.Gap, op.Addr, replayPayload(op.GlobalAddr, int(op.Index)))
				} else {
					_, err = ctrls[k].ReadData(op.Gap, op.Addr)
				}
				if err != nil {
					t.Fatalf("controller %d op %d: %v", k, op.Index, err)
				}
			}
		}
	}

	for k, c := range ctrls {
		ref := sys.Controllers()[k]
		refStats, gotStats := ref.Stats(), c.Stats()
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Fatalf("controller %d stats diverge:\nreplay  %+v\nsplit   %+v", k, refStats, gotStats)
		}
		if ref.ExecCycles() != c.ExecCycles() {
			t.Fatalf("controller %d exec cycles: replay %d, split %d", k, ref.ExecCycles(), c.ExecCycles())
		}
		refDev, gotDev := ref.Device().Stats(), c.Device().Stats()
		if !reflect.DeepEqual(refDev, gotDev) {
			t.Fatalf("controller %d device stats diverge", k)
		}
	}
}

// TestSystemRecoverFoldsReports checks the shared recovery entry point:
// the aggregate is the exact fold of the per-controller reports (work
// summed, time the parallel maximum).
func TestSystemRecoverFoldsReports(t *testing.T) {
	sys := multi.New(3, template(), steins.Factory, 4096)
	if _, err := sys.Replay(trace.New(trace.Profile{
		Name:           "recover-x",
		FootprintBytes: 256 << 10,
		WriteFrac:      0.7,
		GapMean:        5,
		Pattern:        trace.Uniform,
	}, 3, 3000), replayPayload); err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	reports, agg, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	var nodes, reads uint64
	var maxNS float64
	for k, rep := range reports {
		if rep.NVMReads == 0 || rep.TimeNS <= 0 {
			t.Fatalf("controller %d: implausible report %+v", k, rep)
		}
		nodes += rep.NodesRecovered
		reads += rep.NVMReads
		if rep.TimeNS > maxNS {
			maxNS = rep.TimeNS
		}
	}
	if agg.NodesRecovered != nodes || agg.NVMReads != reads || agg.TimeNS != maxNS {
		t.Fatalf("aggregate %+v is not the fold of per-controller reports", agg)
	}
}
