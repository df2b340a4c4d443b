// Crashrecovery: recovery time across schemes and cache sizes.
//
// Reproduces the Fig. 17 methodology interactively: for each recoverable
// scheme and a range of metadata cache sizes, fill the cache with dirty
// nodes, crash, and measure the recovery work under the 100 ns-per-fetch
// model of §IV-D.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"

	"steins/internal/memctrl"
	"steins/internal/multi"
	"steins/internal/rng"
	"steins/internal/scheme/steins"
	"steins/internal/sim"
	"steins/internal/stats"
)

func main() {
	caches := []int{16 << 10, 64 << 10, 256 << 10}
	schemes := []sim.Scheme{sim.ASIT, sim.STAR, sim.SteinsGC, sim.SteinsSC}

	t := stats.NewTable("Recovery time vs metadata cache size (all cached metadata dirty)",
		"cache", "ASIT", "STAR", "Steins-GC", "Steins-SC")
	for _, cacheBytes := range caches {
		row := []string{stats.Bytes(uint64(cacheBytes))}
		for _, s := range schemes {
			rep, err := sim.RecoveryAtCacheSize(s, cacheBytes, 1)
			if err != nil {
				panic(err)
			}
			row = append(row, fmt.Sprintf("%s (%d rd)", stats.Seconds(rep.TimeNS), rep.NVMReads))
		}
		t.AddRow(row...)
	}
	t.AddNote("ASIT reads one shadow slot per cache line; STAR and Steins-GC read ~9-11 lines per dirty node; Steins-SC reads 64 data blocks per leaf")
	t.AddNote("WB cannot recover at all; SCUE would read every leaf of the whole tree (hours at TB scale)")
	fmt.Print(t)

	multiDIMM()
}

// multiDIMM shows the §IV-F deployment: several controllers recover their
// DIMMs in parallel after a machine-wide power failure, so recovery time
// is the slowest DIMM, not the sum.
func multiDIMM() {
	cfg := memctrl.DefaultConfig(4<<20, false)
	cfg.MetaCacheBytes = 16 << 10
	sys := multi.New(4, cfg, steins.Factory, 4096)
	r := rng.New(3)
	lines := sys.DataBytes() / 64
	for i := 0; i < 20000; i++ {
		addr := r.Uint64n(lines) * 64
		var b [64]byte
		b[0] = byte(i)
		if err := sys.WriteData(5, addr, b); err != nil {
			panic(err)
		}
	}
	sys.Crash()
	_, rep, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n4 DIMMs crashed together: %d nodes recovered with %d total reads,\n", rep.NodesRecovered, rep.NVMReads)
	fmt.Printf("parallel recovery time %s (vs %s if the DIMMs recovered serially)\n",
		stats.Seconds(rep.TimeNS), stats.Seconds(float64(rep.NVMReads)*100))
}
