package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read off fewer points is noise, not a measurement.
const minBeyond = 10

// minSamples is the sample count the p90 every workload reports needs.
const minSamples = 100

// percentile returns the p-quantile (nearest rank) of sorted samples. It
// refuses a percentile with fewer than minBeyond samples above it.
func percentile[T uint32 | float64](sorted []T, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	// 1-based rank; the epsilon keeps p*n = 90.00000000000001 at rank 90.
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 || n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, max(n-k, 0), minBeyond)
	}
	return float64(sorted[k-1]), nil
}

// setLatency reports p50_us and p90_us of sorted samples, which are in
// units of scale microseconds.
func setLatency[T uint32 | float64](b *bench, sorted []T, scale float64, what string) error {
	p50, err := percentile(sorted, 0.5)
	if err != nil {
		return fmt.Errorf("p50: %w", err)
	}
	p90, err := percentile(sorted, 0.9)
	if err != nil {
		return fmt.Errorf("p90: %w", err)
	}
	b.set("p50_us", p50*scale, fmt.Sprintf("n=%d %s", len(sorted), what))
	b.set("p90_us", p90*scale, fmt.Sprintf("n=%d %s", len(sorted), what))
	return nil
}

// infoPercentiles prints the median and every tail the sample supports.
func infoPercentiles[T uint32 | float64](b *bench, what string, sorted []T, scale float64) {
	line := fmt.Sprintf("%s latency n=%d", what, len(sorted))
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if v, err := percentile(sorted, p); err == nil {
			line += fmt.Sprintf(" p%g=%.1fus", p*100, v*scale)
		}
	}
	b.info("%s", line)
}

// median returns the middle of the values (the mean of the middle two for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// micros converts durations to sorted microsecond samples.
func micros(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// sortedTenths merges latency sets in tenths of a microsecond into one
// sorted slice.
func sortedTenths(sets ...[]uint32) []uint32 {
	var out []uint32
	for _, set := range sets {
		out = append(out, set...)
	}
	slices.Sort(out)
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
