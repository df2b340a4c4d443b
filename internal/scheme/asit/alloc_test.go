//go:build !race

package asit_test

import (
	"testing"

	"steins/internal/scheme/asit"
	"steins/internal/scheme/schemetest"
)

// TestWriteAllocs pins ASIT's allocations per warm write at WB's three:
// the slot hash (bmt.LeafHash) builds its message in a buffer the policy
// keeps, so OnModify allocates nothing. The race detector's
// instrumentation allocates, so raced builds leave this test out.
func TestWriteAllocs(t *testing.T) {
	if a := schemetest.WriteAllocs(t, asit.Factory, false); a > 3 {
		t.Fatalf("ASIT allocates %v times per write, want at most 3", a)
	}
}
