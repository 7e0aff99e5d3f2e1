package main

import (
	"math"
	"testing"
)

// TestToReferenceHost checks that a run on a host twice as slow as the
// reference, with wall times twice as long and rates half as high,
// reports the reference host's values, and that counts stay as measured.
func TestToReferenceHost(t *testing.T) {
	values := map[string]float64{"repro_s": 0.5, "events_per_s": 4e5, "repro_alloc_mb": 175}
	toReferenceHost(values, []float64{2 * calibRefS, 9 * calibRefS, 1.5 * calibRefS})
	want := map[string]float64{"repro_s": 0.25, "events_per_s": 8e5, "repro_alloc_mb": 175}
	for name, w := range want {
		if got := values[name]; math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}
