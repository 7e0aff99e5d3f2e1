package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"vnettracer/internal/testbed"
)

// The paper-sim workload reproduces a fixed set of the paper's
// experiments through internal/testbed, seeded from the workload seed:
// the OVS Case III latency decomposition (Figs. 8b/9a), the Xen
// consolidated sockperf tail (Fig. 10a) and the probe-overhead latency
// (Fig. 7a). The simulator and the simulated data plane do the work; the
// tracing pipeline inside the testbed carries a few thousand records.

const (
	fig7aPings    = 1500
	fig9aPings    = 300
	fig10Requests = 1500
)

// experimentSet runs the set once and returns its figure rows.
func experimentSet(seed int64) ([]string, error) {
	var rows []string
	ov, err := testbed.RunOverheadLatency(fig7aPings)
	if err != nil {
		return nil, fmt.Errorf("fig7a: %w", err)
	}
	rows = append(rows, fmt.Sprintf("fig7a baseline mean=%.6fus p99.9=%.6fus traced mean=%.6fus p99.9=%.6fus overhead mean=%.6f%% p99.9=%.6f%% records=%d",
		ov.Baseline.MeanUs, ov.Baseline.P999Us, ov.Traced.MeanUs, ov.Traced.P999Us,
		ov.MeanOverheadPct, ov.P999OverheadPct, ov.TraceRecords))

	ovs, err := testbed.RunOVSCase(testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, Pings: fig9aPings, Seed: 11 + 7919*seed})
	if err != nil {
		return nil, fmt.Errorf("fig9a: %w", err)
	}
	row := fmt.Sprintf("fig9a %s sockperf mean=%.6fus p99.9=%.6fus loss=%.6f", ovs.Label, ovs.Sockperf.MeanUs, ovs.Sockperf.P999Us, ovs.LossRate)
	for _, s := range ovs.Segments {
		row += fmt.Sprintf(" %s=%.6fus/%d", s.Name, s.MeanUs, s.Count)
	}
	rows = append(rows, row)

	xenSeed := 23 + 104729*seed
	base, err := testbed.RunXenCase(testbed.XenConfig{Workload: testbed.XenSockperf, Requests: fig10Requests, Seed: xenSeed})
	if err != nil {
		return nil, fmt.Errorf("fig10a: %w", err)
	}
	cons, err := testbed.RunXenCase(testbed.XenConfig{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 1000, Requests: fig10Requests, Seed: xenSeed})
	if err != nil {
		return nil, fmt.Errorf("fig10a: %w", err)
	}
	for _, r := range []testbed.XenResult{base, cons} {
		rows = append(rows, fmt.Sprintf("fig10a %s mean=%.6fus p50=%.6fus p99.9=%.6fus segments=%.6f/%.6f/%.6f/%.6f",
			r.Label, r.AppLatency.MeanUs, r.AppLatency.P50Us, r.AppLatency.P999Us,
			r.SegmentMeans[0], r.SegmentMeans[1], r.SegmentMeans[2], r.SegmentMeans[3]))
	}
	return rows, shapeCheck(ov, ovs, base, cons)
}

// shapeCheck holds the set to the paper's findings: probe overhead below
// 1% of mean latency, the OVS hop dominating the Case III
// decomposition, and consolidation inflating the sockperf tail.
func shapeCheck(ov testbed.OverheadLatencyResult, ovs testbed.OVSCaseResult, base, cons testbed.XenResult) error {
	var problems []string
	if ov.MeanOverheadPct >= 1 {
		problems = append(problems, fmt.Sprintf("fig7a mean probe overhead %.3f%%, paper: <1%%", ov.MeanOverheadPct))
	}
	var ovsUs, restUs float64
	for _, s := range ovs.Segments {
		if s.Name == "ovs" {
			ovsUs = s.MeanUs
		} else {
			restUs += s.MeanUs
		}
	}
	if ovsUs <= restUs {
		problems = append(problems, fmt.Sprintf("fig9a OVS segment %.1fus does not dominate the rest (%.1fus)", ovsUs, restUs))
	}
	if cons.AppLatency.P999Us <= base.AppLatency.P999Us {
		problems = append(problems, fmt.Sprintf("fig10a consolidated p99.9 %.1fus not above baseline %.1fus", cons.AppLatency.P999Us, base.AppLatency.P999Us))
	}
	if len(problems) > 0 {
		return fmt.Errorf("paper shape: %s", strings.Join(problems, "; "))
	}
	return nil
}

// simPass repeats the experiment set and checks that every repetition
// prints byte-identical rows. With calibrated set, each set is followed
// by a timed run of the calibration loop (see calib.go).
type simPass struct {
	seed       int64
	calibrated bool
	rows       []string
	setS       []float64
	calibS     []float64
	allocMB    []float64
	attempted  uint64
	failed     uint64
	findings   []string
}

// load returns the experiment set as a load that repeats until seconds
// have passed and at least minSets have run.
func (s *simPass) load(seconds float64, minSets int) *load {
	return &load{budget: seconds, min: minSets, step: func() (time.Duration, error) { return s.step(), nil }}
}

// step runs the set once from a collected heap, checks it, runs the
// calibration loop if the pass is calibrated, and returns the time both
// took. A failed set counts in failed.
func (s *simPass) step() time.Duration {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	rows, err := experimentSet(s.seed)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	s.attempted++
	if err != nil {
		s.failed++
		s.finding(err.Error())
		return wall
	}
	s.setS = append(s.setS, wall.Seconds())
	s.allocMB = append(s.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	if s.rows == nil {
		s.rows = rows
	} else if strings.Join(rows, "\n") != strings.Join(s.rows, "\n") {
		s.failed++
		s.finding("paper-sim: figure rows differ between repetitions of one seed")
	}
	if s.calibrated {
		runtime.GC()
		t0 = time.Now()
		calibrate()
		c := time.Since(t0)
		s.calibS = append(s.calibS, c.Seconds())
		wall += c
	}
	return wall
}

func (s *simPass) finding(f string) {
	if len(s.findings) < 10 {
		s.findings = append(s.findings, f)
	}
}

// endToEnd reports the median set's wall time, which result rescales to
// the reference host like every wall-clock metric. The allocated bytes
// do not depend on the host; their median is used.
func (s *simPass) endToEnd() map[string]float64 {
	return map[string]float64{
		"repro_s":        median(s.setS),
		"repro_alloc_mb": median(s.allocMB),
	}
}

// summary states the spread of the set and calibration times.
func (s *simPass) summary() string {
	t := append([]float64(nil), s.setS...)
	sort.Float64s(t)
	if len(t) == 0 {
		return "paper-sim: no experiment set completed"
	}
	out := fmt.Sprintf("paper-sim over %d sets: set s min %.4g q1 %.4g median %.4g q3 %.4g max %.4g",
		len(t), t[0], percentile(t, 25), median(t), percentile(t, 75), t[len(t)-1])
	if len(s.calibS) > 0 {
		c := append([]float64(nil), s.calibS...)
		sort.Float64s(c)
		out += fmt.Sprintf("; calibration s min %.4g median %.4g max %.4g, reference %.4g: wall times reported ×%.4g, rates ÷%.4g",
			c[0], median(c), c[len(c)-1], calibRefS, calibRefS/median(c), calibRefS/median(c))
	}
	return out
}
