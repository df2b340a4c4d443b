package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{2, 4, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Normalize = %v", got)
		}
	}
}

func TestNormalizeDegenerateBase(t *testing.T) {
	for _, base := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := Normalize([]float64{1}, base); err == nil {
			t.Fatalf("base %v: no error", base)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean not 0")
	}
}

func TestGeoMeanSkipsDegenerateValues(t *testing.T) {
	// Non-positive and non-finite cells are skipped, not fatal: the mean
	// over the remaining usable values survives one bad cell.
	if g := GeoMean([]float64{1, 0, 4, math.NaN(), math.Inf(1), -3}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean with degenerate cells = %v, want 2", g)
	}
	if g := GeoMean([]float64{0, math.NaN()}); !math.IsNaN(g) {
		t.Fatalf("GeoMean with no usable cells = %v, want NaN", g)
	}
}

func TestFormatDegenerate(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if F(v) != "n/a" || F2(v) != "n/a" {
			t.Fatalf("F(%v) = %q, F2 = %q, want n/a", v, F(v), F2(v))
		}
	}
	if F(1.5) != "1.500" || F2(1.5) != "1.50" {
		t.Fatalf("finite formatting changed: %q %q", F(1.5), F2(1.5))
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean not 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "WB", "Steins")
	tb.AddRow("lbm_r", "1.000", "1.062")
	tb.AddRow("cactusADM", "1.000", "1.081")
	tb.AddNote("normalised to WB")
	s := tb.String()
	for _, want := range []string{"Fig X", "workload", "lbm_r", "1.081", "note: normalised to WB"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	if len(tb.Rows()) != 2 {
		t.Fatalf("Rows = %d", len(tb.Rows()))
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	if got := tb.Rows()[0]; len(got) != 2 || got[1] != "" {
		t.Fatalf("short row not padded: %q", got)
	}
}

func TestSeconds(t *testing.T) {
	for _, tc := range []struct {
		ns   float64
		want string
	}{
		{4.4e8, "440.00 ms"},
		{2e9, "2.00 s"},
		{5e5, "500.0 us"},
		{3e11, "300 s"},
	} {
		if got := Seconds(tc.ns); got != tc.want {
			t.Errorf("Seconds(%v) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

func TestBytes(t *testing.T) {
	for _, tc := range []struct {
		b    uint64
		want string
	}{
		{512, "512 B"},
		{16 << 10, "16.0 KiB"},
		{256 << 20, "256.0 MiB"},
		{2 << 30, "2.0 GiB"},
	} {
		if got := Bytes(tc.b); got != tc.want {
			t.Errorf("Bytes(%d) = %q, want %q", tc.b, got, tc.want)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("Fig X", "a", "b")
	tb.AddRow("r1", "1.0")
	tb.AddNote("n")
	data, err := tb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "Fig X" || len(got.Headers) != 2 || len(got.Rows) != 1 || len(got.Notes) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		vals        []float64
		med, q1, q3 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1}, 2.5, 1, 4},
		{[]float64{5, 1, 3}, 3, 2, 4},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5, 3.5},
		{[]float64{9, 1, 7, 3, 5}, 5, 3, 7},
	} {
		in := append([]float64(nil), tc.vals...)
		if got := Median(in); got != tc.med {
			t.Errorf("Median(%v) = %v, want %v", tc.vals, got, tc.med)
		}
		if q1, q3 := Quartiles(in); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = (%v, %v), want (%v, %v)", tc.vals, q1, q3, tc.q1, tc.q3)
		}
		for i := range in {
			if in[i] != tc.vals[i] {
				t.Fatalf("Median/Quartiles reordered their input: %v", in)
			}
		}
	}
}
