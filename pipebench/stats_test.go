package main

import (
	"sort"
	"testing"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(100)
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{9, 0, false},       // even the median has < 10 beyond
		{20, 50, true},      // 10 beyond p50
		{99, 50, true},      // p90 leaves 9 beyond
		{100, 90, true},     // p90 leaves exactly 10
		{999, 90, true},     // p99 leaves 9
		{1000, 99, true},    // p99 leaves exactly 10
		{20000, 99.9, true}, // p99.9 leaves 20, p99.99 leaves 2
	} {
		s := ramp(c.n)
		p, v, n, ok := tail(s)
		if ok != c.ok || p != c.wantP || n != c.n {
			t.Errorf("n=%d: tail = p%g (ok=%v, n=%d), want p%g (ok=%v)", c.n, p, ok, n, c.wantP, c.ok)
			continue
		}
		if ok {
			if v != percentile(s, p) {
				t.Errorf("n=%d: tail value %g, want %g", c.n, v, percentile(s, p))
			}
			beyond := c.n - sort.SearchFloat64s(s, v) - 1
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, p)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	vals := []float64{5, 1, 3}
	if got := median(vals); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if vals[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "flush", parent: 0, start: 10, end: 60},
		{name: "sink", parent: 1, start: 20, end: 50},
		// Timed on another goroutine and overhanging its parent by 5ns:
		// only the covered part counts against the sink.
		{name: "collector", parent: 2, start: 30, end: 55},
		{name: "flush", parent: 0, start: 70, end: 90},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":      100 - 50 - 20,
		"flush":     (50 - 30) + 20,
		"sink":      30 - 20,
		"collector": 25,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// The attribution sums the layers only: the root span's self time is the
// generator's, and counting it would cover the whole round by
// construction.
func TestLayerSelfLeavesOutRoot(t *testing.T) {
	spans := []span{
		{name: rootSpan, parent: -1, start: 0, end: 100},
		{name: "kernel.fire", parent: 0, start: 5, end: 40},
		{name: "control.flush", parent: 0, start: 45, end: 90},
		{name: "control.sink", parent: 2, start: 50, end: 80},
	}
	self := selfTimes(spans)
	if got, want := layerSelfNs(self), int64(35+15+30); got != want {
		t.Errorf("layer self time %d, want %d", got, want)
	}
	if got := layerSelfNs(self) + self[rootSpan]; got != 100 {
		t.Errorf("layers plus root cover %d of the 100ns round", got)
	}
}

func TestTracerParentsCollectorToOpenSink(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("root", -1)
	sink := tr.beginSink("sink", root)
	col := tr.begin("collector", tr.sinkParent())
	tr.end(col)
	tr.endSink(sink)
	tr.end(root)
	if tr.sinkParent() != -1 {
		t.Error("sink still open after endSink")
	}
	if tr.spans[col].parent != sink {
		t.Errorf("collector parent = %d, want the sink span %d", tr.spans[col].parent, sink)
	}
	self, calls := map[string]int64{}, map[string]int64{}
	tr.drain(self, calls)
	if calls["root"] != 1 || calls["sink"] != 1 || calls["collector"] != 1 {
		t.Errorf("calls = %v", calls)
	}
	if len(tr.spans) != 0 {
		t.Error("drain kept spans")
	}

	off := newTracer(false)
	if id := off.begin("x", -1); id != -1 || off.sinkParent() != -1 {
		t.Error("a disabled tracer recorded a span")
	}
}

// TestTracerAcrossGoroutines mirrors the pipeline: the generator opens
// sink spans while a server goroutine records the collector span inside
// each one.
func TestTracerAcrossGoroutines(t *testing.T) {
	tr := newTracer(true)
	req := make(chan struct{})
	done := make(chan struct{})
	go func() {
		for range req {
			id := tr.begin("collector", tr.sinkParent())
			tr.end(id)
			done <- struct{}{}
		}
	}()
	const calls = 200
	for i := 0; i < calls; i++ {
		root := tr.begin("root", -1)
		sink := tr.beginSink("sink", root)
		req <- struct{}{}
		<-done
		tr.endSink(sink)
		tr.end(root)
	}
	close(req)
	for i, s := range tr.spans {
		if s.name == "collector" && tr.spans[s.parent].name != "sink" {
			t.Fatalf("span %d: collector parented to %q", i, tr.spans[s.parent].name)
		}
	}
	self, counts := map[string]int64{}, map[string]int64{}
	tr.drain(self, counts)
	if counts["collector"] != calls || counts["sink"] != calls {
		t.Fatalf("calls = %v", counts)
	}
}
