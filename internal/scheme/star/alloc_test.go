//go:build !race

package star_test

import (
	"testing"

	"steins/internal/scheme/schemetest"
	"steins/internal/scheme/star"
)

// TestWriteAllocs pins STAR's allocations per warm write at WB's three
// (35 when every set update built a fresh dirty-node list, sorted it
// through sort.Slice and hashed a fresh message). The race detector's
// instrumentation allocates, so raced builds leave this test out.
func TestWriteAllocs(t *testing.T) {
	if a := schemetest.WriteAllocs(t, star.Factory, false); a > 3 {
		t.Fatalf("STAR allocates %v times per write, want at most 3", a)
	}
}
