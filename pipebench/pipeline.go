package main

import (
	"fmt"
	"math/bits"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	vmetrics "vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// Load model: closed loop. One generator goroutine fires a round of
// packetsPerRound packets through both tracepoints, then flushes both
// agents, then starts the next round. Every epoch is a fresh stack and a
// fresh store, so each query runs on a store of the same size
// (roundsPerEpoch rounds), however fast ingest was. An epoch holds 1600
// flushes, so its p99 rests on 16 samples beyond it.
const (
	// packetsPerRound is the agent CLI's own flush load: its demo flow
	// sends 1000 packets/s and the agent flushes every 100 ms.
	packetsPerRound = 100
	roundsPerEpoch  = 800
	// lookupsPerEpoch point lookups are issued per epoch, one in eight
	// for a trace ID the store does not hold.
	lookupsPerEpoch = 128
	// aggReadouts is how often the aggregates readout repeats per epoch.
	aggReadouts = 200
	// rootSpan is each round's enclosing span. Its self time is the
	// generator's own work between the layers' spans, which no layer
	// accounts for.
	rootSpan = "bench.gen"
)

// truthPkt is the generator's ground truth for one packet.
type truthPkt struct {
	id      uint32
	flow    uint16
	match   bool
	sendNs  int64
	delayNs int64
	wire    uint32
}

type epochTruth struct {
	pkts    []truthPkt
	fires   uint64
	matches uint64
}

func (t *epochTruth) add(g *generator) {
	for i := range g.pkts {
		rp := &g.pkts[i]
		match := g.flows[rp.flow].match
		t.pkts = append(t.pkts, truthPkt{
			id: rp.pkt.TraceID, flow: uint16(rp.flow), match: match,
			sendNs: rp.sendNs, delayNs: rp.delayNs, wire: uint32(rp.pkt.WireLen()),
		})
		if match {
			t.matches++
		}
	}
	t.fires += uint64(len(g.events))
}

// pipelinePass runs epochs of one pipeline kind and accumulates both the
// end-to-end samples (untraced epochs) and the per-layer ones (traced).
type pipelinePass struct {
	kind pipeKind
	gen  *generator
	dir  string
	tr   *tracer
	capt *capture // batches of the latest traced epoch

	epochs int

	// End-to-end, from untraced epochs.
	setupS   []float64
	epochEPS []float64
	flushUs  []float64 // every flush
	flushP50 []float64 // per epoch
	flushP99 []float64 // per epoch
	queryS   []float64
	storeBPR []float64
	fires    uint64
	allocB   uint64
	wallNs   int64

	// Per-layer, from traced epochs.
	self        map[string]int64
	calls       map[string]int64
	tracedFires uint64
	tracedWall  int64
	fireAllocB  uint64
	insns       uint64
	invocations uint64
	ringDrops   uint64
	gcCycles    uint64
	gcPauseNs   uint64
	layer       map[string][]float64

	attempted uint64
	failed    uint64
	findings  []string
}

func newPipelinePass(kind pipeKind, seed int64, dir string) *pipelinePass {
	return &pipelinePass{
		kind:  kind,
		gen:   newGenerator(seed),
		dir:   dir,
		tr:    newTracer(false),
		self:  make(map[string]int64),
		calls: make(map[string]int64),
		layer: make(map[string][]float64),
	}
}

// load returns the pass's epochs, traced or not, as a load that runs
// until their summed ingest wall time reaches seconds and at least
// minEpochs have run.
func (p *pipelinePass) load(traced bool, seconds float64, minEpochs int) *load {
	return &load{budget: seconds, min: minEpochs, step: func() (time.Duration, error) {
		w, err := p.epoch(traced)
		return time.Duration(w), err
	}}
}

// extraSetups times further stack bring-ups without traffic, so the
// set-up median rests on at least n samples.
func (p *pipelinePass) extraSetups(n int) error {
	for i := len(p.setupS); i < n; i++ {
		dir := filepath.Join(p.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		st, err := newStack(dir, p.kind, p.tr, nil)
		if err != nil {
			return err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if err := st.close(); err != nil {
			return fmt.Errorf("close stack: %w", err)
		}
	}
	return nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// epoch brings up a stack, drives roundsPerEpoch closed-loop rounds
// through it, queries and checks the result, and tears it down. It
// returns the ingest wall time.
func (p *pipelinePass) epoch(traced bool) (int64, error) {
	p.tr.on = false // no spans during set-up
	var capt *capture
	if traced {
		capt = &capture{}
		p.capt = capt
	}
	dir := filepath.Join(p.dir, fmt.Sprintf("%s-%d", p.kind, p.epochs))
	t0 := time.Now()
	st, err := newStack(dir, p.kind, p.tr, capt)
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0).Seconds()
	if !traced {
		p.setupS = append(p.setupS, setup)
	}
	p.tr.on = traced
	p.gen.startEpoch(p.epochs)
	p.epochs++

	truth := &epochTruth{pkts: make([]truthPkt, 0, roundsPerEpoch*packetsPerRound)}
	flushUs := make([]float64, 0, 2*roundsPerEpoch)
	var pc kernel.ProbeCtx
	var ms0, ms1 runtime.MemStats
	// Start every epoch from the same heap: the previous epoch's store and
	// ground truth are garbage now, and collecting them inside this
	// epoch's timed rounds would charge one epoch for another's work.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var wall int64
	for r := 0; r < roundsPerEpoch; r++ {
		p.gen.nextRound(packetsPerRound)
		truth.add(p.gen)
		if traced && r == 0 {
			capt.addCtxs(p.gen, p.kind)
		}
		start := time.Now()
		root := p.tr.begin(rootSpan, -1)
		fire := p.tr.begin("kernel.fire", root)
		var a0 uint64
		if traced {
			a0 = heapAllocs()
		}
		for _, ev := range p.gen.events {
			st.eng.Run(ev.atNs) // advance the shared simulated clock
			node := st.nodes[ev.tp]
			pc = kernel.ProbeCtx{Site: tpSites[ev.tp], Pkt: &p.gen.pkts[ev.pkt].pkt, CPU: p.gen.cpu(ev), TimeNs: p.gen.stamp(p.kind, ev, node.Clock.NowNs())}
			node.Probes.Fire(&pc)
		}
		if traced {
			p.fireAllocB += heapAllocs() - a0
		}
		p.tr.end(fire)
		for i, a := range st.agents {
			fs := p.tr.begin("control.flush", root)
			st.sinks[i].parent = fs
			ft := time.Now()
			err := a.Flush()
			flushUs = append(flushUs, float64(time.Since(ft))/1e3)
			p.tr.end(fs)
			if err != nil {
				p.finding("flush error: %v", err) // counted by checkDelivery
			}
		}
		p.tr.end(root)
		wall += int64(time.Since(start))
		if traced {
			p.tr.drain(p.self, p.calls)
		}
	}
	runtime.ReadMemStats(&ms1)
	p.attempted += truth.fires
	if traced {
		p.tracedFires += truth.fires
		p.tracedWall += wall
		p.gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		p.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		for i, a := range st.agents {
			if h, ok := a.Handle(tpNames[i]); ok {
				s := h.Stats()
				p.insns += s.Insns
				p.invocations += s.Invocations
			}
		}
	} else {
		p.fires += truth.fires
		p.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		p.wallNs += wall
		p.epochEPS = append(p.epochEPS, float64(truth.fires)/(float64(wall)/1e9))
		p.flushUs = append(p.flushUs, flushUs...)
		sort.Float64s(flushUs)
		p.flushP50 = append(p.flushP50, percentile(flushUs, 50))
		p.flushP99 = append(p.flushP99, percentile(flushUs, 99))
	}

	p.failed += p.checkDelivery(st, truth)
	// The queries, too, start from a collected heap, so the timed queries
	// never collect the ingest's garbage.
	runtime.GC()
	if p.kind == kindRecords {
		p.failed += p.queryRecords(st, truth, traced)
	} else {
		p.failed += p.queryAggregates(st, truth, traced)
	}
	if err := st.close(); err != nil {
		return 0, fmt.Errorf("close stack: %w", err)
	}
	return wall, nil
}

func (p *pipelinePass) finding(format string, args ...any) {
	if len(p.findings) < 20 {
		p.findings = append(p.findings, fmt.Sprintf(format, args...))
	}
}

func (p *pipelinePass) sample(name string, v float64) {
	p.layer[name] = append(p.layer[name], v)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// checkDelivery compares the agents' and the collector's accounting with
// the generator's ground truth. It returns the number of events lost,
// duplicated or refused on the way.
func (p *pipelinePass) checkDelivery(st *stack, truth *epochTruth) uint64 {
	var failed uint64
	for _, a := range st.agents {
		rs := a.RingStats()
		p.ringDrops += rs.Drops
		failed += rs.Drops
		failed += a.SpoolStats().EvictedRecords
		errs, _ := a.FlushErrors()
		failed += errs
		as := a.AggShipStats()
		failed += as.Rejected + as.Evicted + as.ShipErrs
	}
	// Ring drops travel to the collector inside the batches; they are
	// counted once, above, from the agents' rings.
	_, records, _ := st.col.Stats()
	dupBatches, dupRecords, missing := st.col.DeliveryStats()
	failed += dupBatches + dupRecords + missing
	wantRecords := 2 * truth.matches
	if p.kind == kindAggregates {
		wantRecords = 0
	}
	if records != wantRecords {
		failed += absDiff(records, wantRecords)
		p.finding("%s: collector holds %d records, generator matched %d", p.kind, records, wantRecords)
	}
	if failed > 0 {
		p.finding("%s: %d events dropped, evicted, duplicated or refused", p.kind, failed)
	}
	return failed
}

// queryRecords runs the paper's analysis queries over the epoch's store,
// times them and checks every answer against the ground truth.
func (p *pipelinePass) queryRecords(st *stack, truth *epochTruth, traced bool) uint64 {
	st.db.SealAll()
	stor := st.db.StorageTotals()
	ds := st.dur.Stats()
	recs := float64(stor.Records())
	if recs > 0 {
		bpr := float64(stor.ResidentBytes+stor.SpilledBytes) / recs
		if traced {
			p.sample("tracedb.wal_bytes_per_record", float64(ds.WALBytes)/recs)
			p.sample("tracedb.fsyncs", float64(ds.WALSyncs))
			p.sample("tracedb.extents_sealed", float64(stor.Extents))
			p.sample("tracedb.spilled_bytes", float64(stor.SpilledBytes))
			p.sample("tracedb.compression_ratio", stor.CompressionRatio())
		} else {
			p.storeBPR = append(p.storeBPR, bpr)
		}
	}
	t1, ok1 := st.db.Table(1)
	t2, ok2 := st.db.Table(2)
	if !ok1 || !ok2 {
		p.finding("records: tracepoint tables missing")
		return 2 * truth.matches
	}

	// Lookup set: every eighth lookup asks for a packet the filter
	// rejected, which no table holds.
	byID := make(map[uint32]int32, truth.matches)
	var hits, misses []int32
	for i, tp := range truth.pkts {
		if tp.match {
			byID[tp.id] = int32(i)
			hits = append(hits, int32(i))
		} else {
			misses = append(misses, int32(i))
		}
	}
	lookups := make([]int32, 0, lookupsPerEpoch)
	for i := 0; i < lookupsPerEpoch; i++ {
		pool := hits
		if i%8 == 7 && len(misses) > 0 {
			pool = misses
		}
		if len(pool) > 0 {
			lookups = append(lookups, pool[(i*7919)%len(pool)])
		}
	}
	found := make([]core.Record, len(lookups))
	hit := make([]bool, len(lookups))

	var scanS float64
	if traced {
		n := 0
		t0 := time.Now()
		count := func(core.Record) bool { n++; return true }
		t1.ScanAligned(count)
		t2.ScanAligned(count)
		scanS = time.Since(t0).Seconds()
		p.sample("tracedb.scan_s", scanS)
	}
	q0 := time.Now()
	samples := vmetrics.LatenciesOf(vmetrics.SourceFunc(t1.ScanAligned), vmetrics.SourceFunc(t2.ScanAligned))
	q1 := time.Now()
	lost, _ := vmetrics.LossOf(t1, t2)
	q2 := time.Now()
	flows := vmetrics.PerFlowThroughputOf(vmetrics.SourceFunc(t2.ScanAligned))
	q3 := time.Now()
	for i, idx := range lookups {
		found[i], hit[i] = t2.FirstByTraceID(truth.pkts[idx].id)
	}
	q4 := time.Now()
	if traced {
		p.sample("metrics.join_s", q1.Sub(q0).Seconds()-scanS)
		p.sample("metrics.loss_s", q2.Sub(q1).Seconds())
		p.sample("metrics.flow_tput_s", q3.Sub(q2).Seconds())
		p.sample("tracedb.lookup_us", float64(q4.Sub(q3))/1e3/float64(len(lookups)))
	} else {
		p.queryS = append(p.queryS, q4.Sub(q0).Seconds())
	}

	// Checks: every matching fire is queryable exactly once, at the
	// right time, on the right flow.
	var failed uint64
	if n := uint64(t1.Len()); n != truth.matches {
		failed += absDiff(n, truth.matches)
		p.finding("records: tx table holds %d records, want %d", n, truth.matches)
	}
	if n := uint64(t2.Len()); n != truth.matches {
		failed += absDiff(n, truth.matches)
		p.finding("records: rx table holds %d records, want %d", n, truth.matches)
	}
	var good uint64
	for _, s := range samples {
		idx, ok := byID[s.TraceID]
		if ok && truth.pkts[idx].delayNs == s.Ns {
			good++
		}
	}
	if good != truth.matches || uint64(len(samples)) != truth.matches {
		failed += truth.matches - min(good, truth.matches)
		p.finding("records: join gave %d pairs, %d correct, want %d", len(samples), good, truth.matches)
	}
	if lost != 0 {
		failed += uint64(max(lost, -lost))
		p.finding("records: loss query reports %d lost", lost)
	}
	type flowTruth struct{ packets, bytes uint64 }
	wantFlows := make(map[vmetrics.FlowKey]flowTruth)
	for _, tp := range truth.pkts {
		if !tp.match {
			continue
		}
		f := p.gen.flows[tp.flow].tuple
		k := vmetrics.FlowKey{SrcIP: uint32(f.Src), DstIP: uint32(f.Dst), SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: f.Proto}
		ft := wantFlows[k]
		ft.packets++
		ft.bytes += uint64(tp.wire) - vmetrics.TraceIDBytes
		wantFlows[k] = ft
	}
	for _, fs := range flows {
		want := wantFlows[fs.Flow]
		if uint64(fs.Packets) != want.packets || fs.Bytes != want.bytes {
			failed += absDiff(uint64(fs.Packets), want.packets) + 1
			p.finding("records: flow %v has %d packets/%d bytes, want %d/%d", fs.Flow, fs.Packets, fs.Bytes, want.packets, want.bytes)
		}
		delete(wantFlows, fs.Flow)
	}
	for k, want := range wantFlows {
		failed += want.packets
		p.finding("records: flow %v missing from the throughput query", k)
	}
	for i, idx := range lookups {
		tp := truth.pkts[idx]
		switch {
		case tp.match && (!hit[i] || found[i].TimeNs != uint64(tp.sendNs+tp.delayNs)):
			failed++
			p.finding("records: lookup of trace ID %#x returned %v (found=%v)", tp.id, found[i], hit[i])
		case !tp.match && hit[i]:
			failed++
			p.finding("records: lookup of unrecorded trace ID %#x found a record", tp.id)
		}
	}
	return failed
}

// queryAggregates reads the merged aggregates back, times the readout
// and checks every counter against the ground truth.
func (p *pipelinePass) queryAggregates(st *stack, truth *epochTruth, traced bool) uint64 {
	type readout struct {
		agg  [2]tracedb.ScriptAgg
		ok   [2]bool
		hist [2]vmetrics.HistSummary
	}
	var ro readout
	times := make([]float64, 0, aggReadouts)
	histUs := make([]float64, 0, aggReadouts)
	for i := 0; i < aggReadouts; i++ {
		t0 := time.Now()
		for tp := range ro.agg {
			ro.agg[tp], ro.ok[tp] = st.aggs.Get(tpNames[tp])
		}
		t1 := time.Now()
		for tp := range ro.agg {
			ro.hist[tp] = vmetrics.HistSummarize(ro.agg[tp].Hist)
		}
		t2 := time.Now()
		times = append(times, t2.Sub(t0).Seconds())
		histUs = append(histUs, float64(t2.Sub(t1))/1e3)
	}
	if traced {
		p.sample("metrics.hist_query_us", median(histUs))
	} else {
		p.queryS = append(p.queryS, median(times))
	}

	var failed uint64
	var wantBytes uint64
	type flowTruth struct{ packets, bytes uint64 }
	wantFlows := make(map[int]flowTruth)
	// Histograms: the tx stamp is the probe time, so every tx sample is
	// 0; the rx stamp is the send time, so every rx sample is the
	// packet's generated delay.
	var wantHist [2][script.HistBuckets]uint64
	for _, tp := range truth.pkts {
		if tp.match {
			wantBytes += uint64(tp.wire)
			ft := wantFlows[int(tp.flow)]
			ft.packets++
			ft.bytes += uint64(tp.wire)
			wantFlows[int(tp.flow)] = ft
			wantHist[0][0]++
			wantHist[1][histBucket(uint64(tp.delayNs))]++
		}
	}
	for tp := range ro.agg {
		a := ro.agg[tp]
		if !ro.ok[tp] || len(a.Counters) < 2 || len(a.Hist) == 0 {
			failed += truth.matches
			p.finding("aggregates: %s has no merged counters", tpNames[tp])
			continue
		}
		if a.Counters[0] != truth.matches || a.Counters[1] != wantBytes {
			failed += absDiff(a.Counters[0], truth.matches) + 1
			p.finding("aggregates: %s counted %d packets/%d bytes, want %d/%d",
				tpNames[tp], a.Counters[0], a.Counters[1], truth.matches, wantBytes)
		}
		if n := ro.hist[tp].Count; n != truth.matches {
			failed += absDiff(n, truth.matches) + 1
			p.finding("aggregates: %s histogram holds %d samples, want %d", tpNames[tp], n, truth.matches)
		}
		for b, want := range wantHist[tp] {
			var got uint64
			if b < len(a.Hist) {
				got = a.Hist[b]
			}
			if got != want {
				failed += absDiff(got, want)
				p.finding("aggregates: %s histogram bucket %d holds %d samples, want %d", tpNames[tp], b, got, want)
			}
		}
		if len(a.Hist) > script.HistBuckets {
			failed++
			p.finding("aggregates: %s histogram has %d buckets, want %d", tpNames[tp], len(a.Hist), script.HistBuckets)
		}
		got := make(map[int]flowTruth)
		for _, f := range a.Flows {
			fi := p.flowIndex(f)
			got[fi] = flowTruth{f.Packets, f.Bytes}
		}
		for fi, want := range wantFlows {
			if got[fi] != want {
				failed += absDiff(got[fi].packets, want.packets) + 1
				p.finding("aggregates: %s flow %d has %+v, want %+v", tpNames[tp], fi, got[fi], want)
			}
		}
		if len(got) != len(wantFlows) {
			failed++
			p.finding("aggregates: %s holds %d flows, want %d", tpNames[tp], len(got), len(wantFlows))
		}
	}
	if t := st.aggs.Totals(); t.FramesDup+t.FramesFenced > 0 {
		failed += t.FramesDup + t.FramesFenced
		p.finding("aggregates: %d duplicate and %d fenced frames", t.FramesDup, t.FramesFenced)
	}
	return failed
}

// histBucket is the log2 bucket of a latency sample: bucket 0 holds
// zero, bucket b >= 1 holds [2^(b-1), 2^b), the last absorbs the rest.
func histBucket(v uint64) int {
	return min(bits.Len64(v), script.HistBuckets-1)
}

// flowIndex maps a merged flow row back to its generator flow, -1 if
// the row matches no generated flow.
func (p *pipelinePass) flowIndex(f tracedb.FlowAgg) int {
	for i, fl := range p.gen.flows {
		t := fl.tuple
		if uint32(t.Src) == f.SrcIP && uint32(t.Dst) == f.DstIP && t.SrcPort == f.SrcPort &&
			t.DstPort == f.DstPort && t.Proto == f.Proto {
			return i
		}
	}
	return -1
}

// endToEnd returns the pass's end-to-end metrics. query_s is the mean
// over epochs, not the median: the aggregates readout takes a few
// microseconds, and its per-epoch value falls into one of two modes
// about 1.7x apart, so a median over epochs jumps between the modes from
// run to run, where the mean follows their mix.
func (p *pipelinePass) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":               median(p.setupS),
		"events_per_s":          median(p.epochEPS),
		"query_s":               mean(p.queryS),
		"alloc_bytes_per_event": float64(p.allocB) / float64(p.fires),
		"flush_p50_us":          median(p.flushUs),
	}
	if p.kind == kindRecords {
		m["store_bytes_per_record"] = median(p.storeBPR)
	}
	return m
}

// flushSummary states the flush sample count and the deepest percentile
// it supports.
func (p *pipelinePass) flushSummary() string {
	sorted := append([]float64(nil), p.flushUs...)
	sort.Float64s(sorted)
	tp, tv, n, ok := tail(sorted)
	if !ok {
		return fmt.Sprintf("%s flush: %d samples, too few for a tail", p.kind, n)
	}
	return fmt.Sprintf("%s flush: %d samples, pooled p50 %.1f us, p99 %.1f us, p%g = %.1f us (highest percentile with >= 10 samples beyond it)",
		p.kind, n, percentile(sorted, 50), percentile(sorted, 99), tp, tv)
}

// epochSummary states the spread of the per-epoch samples behind the
// medians.
func (p *pipelinePass) epochSummary() string {
	q := func(v []float64) string {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g",
			s[0], percentile(s, 25), median(s), percentile(s, 75), s[len(s)-1])
	}
	return fmt.Sprintf("%s over %d epochs: events/s %s; query s %s; flush p50 us %s",
		p.kind, len(p.epochEPS), q(p.epochEPS), q(p.queryS), q(p.flushP50))
}

// perLayer returns the traced epochs' per-layer metrics.
func (p *pipelinePass) perLayer() map[string]float64 {
	m := make(map[string]float64)
	tf := float64(p.tracedFires)
	perCall := func(name string) float64 {
		if p.calls[name] == 0 {
			return 0
		}
		return float64(p.self[name]) / float64(p.calls[name]) / 1e3
	}
	m["kernel.fire_ns"] = float64(p.self["kernel.fire"]) / tf
	m["kernel.fire_alloc_b"] = float64(p.fireAllocB) / tf
	if p.invocations > 0 {
		m["ebpf.insns_per_run"] = float64(p.insns) / float64(p.invocations)
	}
	m["control.flush_self_us"] = perCall("control.flush")
	if len(p.flushP99) > 0 {
		// From the run's untraced epochs: span bookkeeping would add to
		// every flush it measures.
		m["control.flush_p99_us"] = median(p.flushP99)
	}
	if p.kind == kindRecords {
		m["core.ring_drops"] = float64(p.ringDrops)
		m["control.rtt_self_us"] = perCall("control.sink")
		m["control.collector_us"] = perCall("control.collector")
	} else {
		m["control.agg_rtt_us"] = perCall("control.agg_sink")
		m["tracedb.agg_admit_us"] = perCall("tracedb.agg_admit")
	}
	m["runtime.gc_cycles"] = float64(p.gcCycles)
	m["runtime.gc_pause_ms"] = float64(p.gcPauseNs) / 1e6
	for name, vals := range p.layer {
		m[name] = median(vals)
	}

	// Attribution: the layers' self times of the traced epochs, per fire,
	// against the untraced wall time per fire.
	if p.fires > 0 && p.tracedFires > 0 {
		untraced := float64(p.wallNs) / float64(p.fires)
		traced := float64(p.tracedWall) / tf
		m["attr.unattributed_share"] = 1 - float64(layerSelfNs(p.self))/tf/untraced
		m["attr.tracing_overhead"] = 1 - untraced/traced
	}
	return m
}

// layerSelfNs sums the self times of the layers' spans. The root span's
// self time is left out: it is the generator's time, not a layer's, so
// an attribution that counted it would cover the whole round by
// construction and could never show a layer's time going missing.
func layerSelfNs(self map[string]int64) int64 {
	var ns int64
	for name, v := range self {
		if name != rootSpan {
			ns += v
		}
	}
	return ns
}

// attribution renders the stage breakdown of the traced epochs, as
// shares of the traced wall time; what no layer's span covers is the
// unattributed rest.
func (p *pipelinePass) attribution() string {
	names := make([]string, 0, len(p.self))
	for n := range p.self {
		if n != rootSpan {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return p.self[names[i]] > p.self[names[j]] })
	tf, wall := float64(p.tracedFires), float64(p.tracedWall)
	s := fmt.Sprintf("%s layer self time per fire:", p.kind)
	for _, n := range names {
		s += fmt.Sprintf(" %s %.0fns (%.1f%%)", n, float64(p.self[n])/tf, 100*float64(p.self[n])/wall)
	}
	rest := p.tracedWall - layerSelfNs(p.self)
	return s + fmt.Sprintf("; unattributed %.0fns (%.1f%%)", float64(rest)/tf, 100*float64(rest)/wall)
}
