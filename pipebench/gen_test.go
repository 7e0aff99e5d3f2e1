package main

import (
	"reflect"
	"testing"
)

// rounds returns the packets and events of the first n rounds of epoch 0
// for a seed. The UDP header pointer is dropped: it aliases the
// generator's reused round buffer, and the header itself is in udp.
func rounds(seed int64, n int) ([]roundPacket, []fireEvent) {
	g := newGenerator(seed)
	g.startEpoch(0)
	var pkts []roundPacket
	var evs []fireEvent
	for i := 0; i < n; i++ {
		g.nextRound(packetsPerRound)
		for _, p := range g.pkts {
			p.pkt.UDP = nil
			pkts = append(pkts, p)
		}
		evs = append(evs, g.events...)
	}
	return pkts, evs
}

func TestGeneratorDeterministic(t *testing.T) {
	p1, e1 := rounds(7, 3)
	p2, e2 := rounds(7, 3)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("same seed produced different packets")
	}
	p3, _ := rounds(8, 3)
	same := 0
	for i := range p1 {
		if p1[i].pkt.TraceID == p3[i].pkt.TraceID && p1[i].delayNs == p3[i].delayNs {
			same++
		}
	}
	if same > len(p1)/100 {
		t.Fatalf("seeds 7 and 8 agree on %d of %d packets", same, len(p1))
	}
	if reflect.DeepEqual(newGenerator(7).flows, newGenerator(8).flows) {
		t.Fatal("seeds 7 and 8 produced the same flow mix")
	}
}

func TestGeneratorInputs(t *testing.T) {
	g := newGenerator(3)
	g.startEpoch(0)
	seen := make(map[uint32]bool)
	var last int64
	var matched, total int
	for r := 0; r < 50; r++ {
		g.nextRound(packetsPerRound)
		for _, ev := range g.events {
			if ev.atNs < last {
				t.Fatalf("round %d: events go back in time (%d after %d)", r, ev.atNs, last)
			}
			last = ev.atNs
		}
		for _, p := range g.pkts {
			id := p.pkt.TraceID
			if id == 0 || seen[id] {
				t.Fatalf("trace ID %#x is zero or repeated", id)
			}
			seen[id] = true
			total++
			if g.flows[p.flow].match {
				matched++
			}
		}
	}
	if miss := 1 - float64(matched)/float64(total); miss < 0.05 || miss > 0.15 {
		t.Errorf("filter-miss share %.3f, want a minority near %.2f", miss, missShare)
	}
}

func TestTraceIDPermutationIsInjective(t *testing.T) {
	g := &generator{key: 0x9e3779b9}
	seen := make(map[uint32]uint32, 1<<18)
	for n := uint32(1); n <= 1<<18; n++ {
		id := g.traceID(n)
		if prev, dup := seen[id]; dup || id == 0 {
			t.Fatalf("trace ID %#x for n=%d and n=%d", id, prev, n)
		}
		seen[id] = n
	}
}

// On aggregates the rx context carries the send time, so the histogram
// sample (ktime minus stamp) is the generated delay; everywhere else the
// stamp is the probe time itself.
func TestStampGivesGeneratedDelay(t *testing.T) {
	g := newGenerator(5)
	g.startEpoch(0)
	g.nextRound(packetsPerRound)
	for _, ev := range g.events {
		rp := &g.pkts[ev.pkt]
		for _, kind := range []pipeKind{kindRecords, kindAggregates} {
			want := int64(0)
			if kind == kindAggregates && ev.tp == 1 {
				want = rp.delayNs
			}
			if got := ev.atNs - g.stamp(kind, ev, ev.atNs); got != want {
				t.Fatalf("%v tp %d: sample %d, want %d", kind, ev.tp, got, want)
			}
		}
	}
}

func TestHistBucket(t *testing.T) {
	for _, c := range []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {15_000, 14}, {1 << 20, 21}, {1<<63 + 5, 63},
	} {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
