package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailPercentiles are the candidates tail reports from, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tail reports the highest candidate percentile that still leaves at
// least ten samples beyond it, its value, and the sample count. A tail
// percentile resting on fewer than ten samples is one outlier, not a
// measurement. ok is false when even the median has fewer than ten
// samples beyond it.
func tail(sorted []float64) (p, v float64, n int, ok bool) {
	n = len(sorted)
	for _, c := range tailPercentiles {
		rank := int(math.Ceil(c/100*float64(n) - 1e-9))
		if n-rank < 10 {
			break
		}
		p, v, ok = c, percentile(sorted, c), true
	}
	return p, v, n, ok
}

// median returns the median of vals (the mean of the middle pair for an
// even count), leaving vals unmodified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of vals, 0 for none.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// span is one timed call into a layer. parent indexes the span whose
// interval encloses it, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end int64 // ns since the tracer's epoch
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Child intervals are clipped to
// the parent's, so a child timed on another goroutine can never push a
// parent's self time below zero through clock jitter.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		self := s.end - s.start - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.name] += self
	}
	return out
}

// tracer records spans around calls into the program's layers. The
// sink wrapper runs on the generator goroutine and the collector wrapper
// on a server connection goroutine; the loop is closed, so at most one
// sink call is open at a time and the collector span parents to it.
type tracer struct {
	on    bool
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	openSink int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), openSink: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// beginSink opens a sink span and marks it as the parent of the next
// collector span.
func (t *tracer) beginSink(name string, parent int) int {
	id := t.begin(name, parent)
	if id >= 0 {
		t.mu.Lock()
		t.openSink = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) endSink(id int) {
	t.end(id)
	if id >= 0 {
		t.mu.Lock()
		t.openSink = -1
		t.mu.Unlock()
	}
}

// sinkParent is the open sink span, -1 if none.
func (t *tracer) sinkParent() int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openSink
}

// drain folds the recorded spans into self times and call counts and
// forgets them, keeping memory bounded across a long run.
func (t *tracer) drain(self map[string]int64, calls map[string]int64) {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	for name, ns := range selfTimes(spans) {
		self[name] += ns
	}
	for _, s := range spans {
		calls[s.name]++
	}
}
