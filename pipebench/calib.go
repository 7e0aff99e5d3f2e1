package main

import (
	"container/heap"
	"math"
)

// On a shared VM the host's co-tenants slow memory-heavy work for
// stretches that outlast a run, so whole runs come out 20-40% slower than
// their neighbours, and every wall-clock metric of such a run moves with
// it. No statistic over one run's samples removes that. So each untraced
// run also times a calibration loop, right after each experiment set and
// all through the run: a fixed piece of work owned by the benchmark,
// shaped like the program's (an event queue of freshly allocated entries,
// small-object malloc and GC, large zeroed buffers), whose time moves
// with the host's speed but never with the program. The run's wall-clock
// metrics are then reported as they would read on a host where the loop
// takes calibRefS.

// calibRefS is the calibration loop's median time, inside benchmark runs,
// on the host the bounds were set on (2-vCPU Intel Xeon VM, 2.1 GHz,
// Go 1.24).
const calibRefS = 0.147

// toReferenceHost rescales the wall-clock metrics in values (see
// wallClock) by the run's host speed: calibRefS over the median of the
// calibration times calibS.
func toReferenceHost(values map[string]float64, calibS []float64) {
	speed := calibRefS / median(calibS)
	for name, power := range wallClock {
		if v, ok := values[name]; ok {
			values[name] = v * math.Pow(speed, power)
		}
	}
}

type calibEvent struct {
	t    int64
	seq  int
	data []byte
	prev *calibEvent
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int { return len(q) }
func (q calibQueue) Less(i, j int) bool {
	return q[i].t < q[j].t || q[i].t == q[j].t && q[i].seq < q[j].seq
}
func (q calibQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)   { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any     { o := *q; e := o[len(o)-1]; *q = o[:len(o)-1]; return e }

// calibSink keeps the loop's results reachable so none of it is
// optimised away.
var calibSink struct {
	sum int64
	buf []byte
}

// calibrate runs the calibration loop once: 400k pops and pushes on a
// 512-entry event queue, each push allocating a 32-223 byte payload from
// a xorshift stream, then 24 zeroed 1 MiB buffers.
func calibrate() {
	var q calibQueue
	x := uint64(88172645463325252)
	seq := 0
	for ; seq < 512; seq++ {
		heap.Push(&q, &calibEvent{t: int64(seq), seq: seq, data: make([]byte, 64)})
	}
	var sum int64
	for i := 0; i < 400000; i++ {
		e := heap.Pop(&q).(*calibEvent)
		sum += e.t + int64(len(e.data))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&q, &calibEvent{t: e.t + int64(x%1000), seq: seq, data: make([]byte, 32+int(x%192)), prev: e})
		e.prev = nil
		seq++
	}
	for i := 0; i < 24; i++ {
		b := make([]byte, 1<<20)
		b[i] = 1
		calibSink.buf = b
	}
	calibSink.sum += sum
}
