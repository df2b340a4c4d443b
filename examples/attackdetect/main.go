// Attackdetect: the threat model exercised end to end.
//
// Runs every attack scenario of the §II-A threat model — data/metadata
// tampering, replay of authentic stale state, and manipulation of the
// recovery-tracking structures — against each recoverable scheme and
// prints where each attack was caught.
//
//	go run ./examples/attackdetect
package main

import (
	"fmt"

	"steins/internal/attack"
	"steins/internal/sim"
	"steins/internal/stats"
)

func main() {
	schemes := []sim.Scheme{sim.ASIT, sim.STAR, sim.SteinsGC, sim.SteinsSC, sim.SCUEGC}

	headers := []string{"attack"}
	for _, s := range schemes {
		headers = append(headers, s.Name)
	}
	t := stats.NewTable("Integrity attack detection matrix", headers...)
	for _, sc := range attack.Scenarios() {
		row := []string{sc.String()}
		for _, s := range schemes {
			rep, err := attack.Execute(s.Factory, s.Split, sc, 1)
			switch {
			case err != nil:
				row = append(row, "ERROR: "+err.Error())
			case rep.Detected:
				row = append(row, "detected@"+rep.Where)
			case rep.Neutralized:
				row = append(row, "neutralized")
			default:
				row = append(row, "MISSED")
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("detected@recovery: integrity error raised while rebuilding the tree")
	t.AddNote("detected@runtime: HMAC verification failed on the next access")
	t.AddNote("neutralized: the scheme's restore overwrote the attack; all data verified intact")
	fmt.Print(t)
}
