package vnettracer

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section IV). Each figure bench runs the corresponding testbed experiment
// and reports the figure's headline quantity via b.ReportMetric, so
// `go test -bench` output doubles as the reproduction record; cmd/vntbench
// prints the same results as full paper-style rows. Microbenchmarks at the
// bottom pin the mechanism costs the paper argues about (trace-ID
// insertion in tens of nanoseconds, eBPF interpretation, verification).

import (
	"fmt"
	"sync"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/testbed"
	"vnettracer/internal/vnet"
)

func BenchmarkFig7aOverheadLatency(b *testing.B) {
	var last testbed.OverheadLatencyResult
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunOverheadLatency(2000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanOverheadPct, "mean-overhead-%")
	b.ReportMetric(last.P999OverheadPct, "p999-overhead-%")
}

func BenchmarkFig7bOverheadThroughput(b *testing.B) {
	for _, bc := range []struct {
		name string
		link int64
	}{
		{"1G", testbed.Gbps},
		{"10G", 10 * testbed.Gbps},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var last testbed.OverheadThroughputResult
			for i := 0; i < b.N; i++ {
				res, err := testbed.RunOverheadThroughput(bc.link, 10000)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.SystemTapLossPct, "systemtap-loss-%")
			b.ReportMetric(last.VNetLossPct, "vnettracer-loss-%")
		})
	}
}

func BenchmarkFig8bOVSCongestion(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  testbed.OVSCaseConfig
	}{
		{"CaseI", testbed.OVSCaseConfig{}},
		{"CaseII", testbed.OVSCaseConfig{IperfVM0: 1}},
		{"CaseIII", testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var last testbed.OVSCaseResult
			for i := 0; i < b.N; i++ {
				cfg := bc.cfg
				cfg.Pings = 2000
				res, err := testbed.RunOVSCase(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Sockperf.MeanUs, "mean-us")
			b.ReportMetric(last.Sockperf.P999Us, "p999-us")
		})
	}
}

func BenchmarkFig9aDecomposition(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  testbed.OVSCaseConfig
	}{
		{"CaseII", testbed.OVSCaseConfig{IperfVM0: 1}},
		{"CaseII+", testbed.OVSCaseConfig{IperfVM0: 3}},
		{"CaseIII", testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1}},
		{"CaseIII+", testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var ovsUs float64
			for i := 0; i < b.N; i++ {
				cfg := bc.cfg
				cfg.Pings = 2000
				res, err := testbed.RunOVSCase(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range res.Segments {
					if s.Name == "ovs" {
						ovsUs = s.MeanUs
					}
				}
			}
			b.ReportMetric(ovsUs, "ovs-segment-us")
		})
	}
}

func BenchmarkFig9bRateLimit(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		cfg := testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, Pings: 2000}
		res, err := testbed.RunOVSCase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		before = res.Sockperf.MeanUs
		cfg.Police = true
		res, err = testbed.RunOVSCase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		after = res.Sockperf.MeanUs
	}
	b.ReportMetric(before, "congested-mean-us")
	b.ReportMetric(after, "policed-mean-us")
}

func benchXen(b *testing.B, cfg testbed.XenConfig) testbed.XenResult {
	b.Helper()
	var last testbed.XenResult
	for i := 0; i < b.N; i++ {
		cfg.Requests = 1500
		res, err := testbed.RunXenCase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

func BenchmarkFig10aXenSockperf(b *testing.B) {
	base := benchXen(b, testbed.XenConfig{Workload: testbed.XenSockperf})
	cons := benchXen(b, testbed.XenConfig{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 1000})
	fixed := benchXen(b, testbed.XenConfig{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 0})
	b.ReportMetric(cons.AppLatency.P999Us/base.AppLatency.P999Us, "tail-inflation-x")
	b.ReportMetric(fixed.AppLatency.P999Us/base.AppLatency.P999Us, "fixed-vs-base-x")
}

func BenchmarkFig10bXenMemcached(b *testing.B) {
	base := benchXen(b, testbed.XenConfig{Workload: testbed.XenMemcached})
	cons := benchXen(b, testbed.XenConfig{Workload: testbed.XenMemcached, Consolidated: true, RatelimitUs: 1000})
	b.ReportMetric(cons.AppLatency.MeanUs/base.AppLatency.MeanUs, "mean-inflation-x")
	b.ReportMetric(cons.AppLatency.P999Us/base.AppLatency.P999Us, "tail-inflation-x")
}

func BenchmarkFig11aDecompositionIdle(b *testing.B) {
	res := benchXen(b, testbed.XenConfig{Workload: testbed.XenSockperf})
	var total float64
	for _, m := range res.SegmentMeans {
		total += m
	}
	b.ReportMetric(res.SegmentMeans[0]/total*100, "wire-share-%")
	b.ReportMetric(res.JitterHiUs, "jitter-hi-us")
}

func BenchmarkFig11bDecompositionShared(b *testing.B) {
	res := benchXen(b, testbed.XenConfig{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 1000})
	var total float64
	for _, m := range res.SegmentMeans {
		total += m
	}
	b.ReportMetric(res.SegmentMeans[2]/total*100, "sched-share-%")
	b.ReportMetric(res.JitterHiUs, "jitter-hi-us")
}

func BenchmarkFig12bOverlayThroughput(b *testing.B) {
	var last testbed.ContainerThroughputResult
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunContainerThroughput(8000)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TCPRatioPct, "tcp-container/vm-%")
	b.ReportMetric(last.UDPRatioPct, "udp-container/vm-%")
}

func BenchmarkFig13aSoftirq(b *testing.B) {
	var last testbed.SoftirqResult
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunSoftirqDistribution()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.RateRatio, "rate-ratio-x")
	b.ReportMetric(last.ContTopShare*100, "container-top-cpu-%")
}

func BenchmarkFig13bDataPath(b *testing.B) {
	var last testbed.PathTraceResult
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunPathTrace()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(len(last.ContainerPath)), "container-hops")
	b.ReportMetric(float64(len(last.VMPath)), "vm-hops")
}

func BenchmarkFig4ClockSkew(b *testing.B) {
	var errNs float64
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunXenCase(testbed.XenConfig{Workload: testbed.XenSockperf, Requests: 500})
		if err != nil {
			b.Fatal(err)
		}
		e := res.SkewEstimateNs - res.SkewTruthNs
		if e < 0 {
			e = -e
		}
		errNs = float64(e)
	}
	b.ReportMetric(errNs, "skew-error-ns")
}

// Mechanism microbenchmarks.

// BenchmarkTraceIDInsertTCP pins the paper's Section III-B claim that
// embedding the packet ID costs "tens of nanoseconds".
func BenchmarkTraceIDInsertTCP(b *testing.B) {
	p := &vnet.Packet{
		IP:  vnet.IPv4Header{Protocol: vnet.ProtoTCP},
		TCP: &vnet.TCPHeader{SrcPort: 1, DstPort: 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetTCPTraceID(uint32(i) | 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceIDPutTrimUDP(b *testing.B) {
	p := &vnet.Packet{
		IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP},
		UDP:     &vnet.UDPHeader{SrcPort: 1, DstPort: 2},
		Payload: make([]byte, 56, 64),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PutUDPTraceID(uint32(i) | 1); err != nil {
			b.Fatal(err)
		}
		if _, err := p.TrimUDPTraceID(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnv is a no-op helper environment.
type benchEnv struct{}

func (benchEnv) KtimeNs() uint64              { return 12345 }
func (benchEnv) SMPProcessorID() uint32       { return 0 }
func (benchEnv) PrandomU32() uint32           { return 4 }
func (benchEnv) PerfEventOutput([]byte) bool  { return true }
func (benchEnv) TracePrintk(string)           {}

// benchRecordSetup compiles the canonical record script (filter + 48-byte
// record emission) and a matching packet context for the tier ablation
// benchmarks below.
func benchRecordSetup(b *testing.B) (*ebpf.Program, []byte) {
	b.Helper()
	c, err := script.Compile(script.Spec{
		Name:    "bench",
		TPID:    1,
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []script.Action{script.ActionRecord},
	})
	if err != nil {
		b.Fatal(err)
	}
	pc := &kernel.ProbeCtx{
		Pkt: &vnet.Packet{
			IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
			UDP:     &vnet.UDPHeader{SrcPort: 1, DstPort: 9000},
			TraceID: 7,
		},
		TimeNs: 1,
	}
	return c.Prog, core.BuildCtx(nil, pc)
}

// BenchmarkEBPFInterpRecordScript measures interpreting the record script
// once per packet — the ablation baseline for the optimized tier.
func BenchmarkEBPFInterpRecordScript(b *testing.B) {
	prog, ctx := benchRecordSetup(b)
	env := benchEnv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prog.RunInterpreted(ctx, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEBPFCompiledRecordScript measures the optimized tier: basic
// blocks compiled to specialized closure chains with verifier-fact bounds
// elision and inlined helpers. This is what Program.Run executes on the
// data path.
func BenchmarkEBPFCompiledRecordScript(b *testing.B) {
	prog, ctx := benchRecordSetup(b)
	env := benchEnv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prog.Run(ctx, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEBPFInterpFilterMiss(b *testing.B) {
	c, err := script.Compile(script.Spec{
		Name:    "bench-miss",
		TPID:    1,
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []script.Action{script.ActionRecord},
	})
	if err != nil {
		b.Fatal(err)
	}
	pc := &kernel.ProbeCtx{
		Pkt: &vnet.Packet{
			IP:  vnet.IPv4Header{Protocol: vnet.ProtoTCP, Src: 1, Dst: 2},
			TCP: &vnet.TCPHeader{SrcPort: 1, DstPort: 80},
		},
	}
	ctx := core.BuildCtx(nil, pc)
	env := benchEnv{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Prog.Run(ctx, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEBPFVerifier(b *testing.B) {
	c, err := script.Compile(script.Spec{
		Name:    "bench-verify",
		TPID:    1,
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000, DstIP: 7},
		Actions: []script.Action{script.ActionRecord, script.ActionCount},
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := ebpf.ProgramSpec{
		Name: "v", Type: ebpf.ProgTypeKprobe, CtxSize: core.CtxSize,
		Maps: c.Prog.Maps(),
	}
	// Reload the same instruction stream each iteration.
	insns, maps, err := script.CompileToInsns(script.Spec{
		Name:    "bench-verify",
		TPID:    1,
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000, DstIP: 7},
		Actions: []script.Action{script.ActionRecord, script.ActionCount},
	})
	if err != nil {
		b.Fatal(err)
	}
	spec.Insns, spec.Maps = insns, maps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ebpf.Verify(spec.Insns, spec.Maps, core.CtxSize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingBufferWriteDrain(b *testing.B) {
	rb, err := core.NewRingBuffer(core.MaxBufferBytes)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, core.RecordSize)
	drainBuf := make([]byte, 0, core.MaxBufferBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rb.Write(rec) {
			drainBuf = rb.DrainInto(drainBuf[:0])
		}
	}
}

// BenchmarkRingBufferReserveCommit measures the zero-allocation emit
// path: reserve ring space, serialize the record in place, commit. This
// is what every perf_event_output costs once the eBPF program has built
// its record.
func BenchmarkRingBufferReserveCommit(b *testing.B) {
	rb, err := core.NewRingBuffer(core.MaxBufferBytes)
	if err != nil {
		b.Fatal(err)
	}
	rec := core.Record{TraceID: 7, TPID: 1, TimeNs: 12345, Len: 1500, Proto: 17}
	drainBuf := make([]byte, 0, core.MaxBufferBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := rb.Reserve(core.RecordSize)
		if dst == nil {
			drainBuf = rb.DrainInto(drainBuf[:0])
			continue
		}
		rec.Seq = uint64(i)
		rec.MarshalTo(dst)
		rb.Commit()
	}
}

// BenchmarkRingBufferContended is the scaling benchmark behind the
// per-CPU buffer design: N producers emitting 48-byte records as fast as
// they can, either each into its own per-CPU ring (percpu, the
// vNetTracer layout) or all serializing on one shared mutex-guarded ring
// (shared, the old layout). Producers drain their ring into a reusable
// buffer when full, like the agent's flush loop. ns/op is per record
// across all producers, so percpu vs shared at the same producer count
// reads directly as the contention cost.
func BenchmarkRingBufferContended(b *testing.B) {
	run := func(b *testing.B, producers, rings int) {
		prc, err := core.NewPerCPURing(rings, core.MaxBufferBytes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / producers
		for p := 0; p < producers; p++ {
			n := per
			if p == 0 {
				n += b.N % producers
			}
			wg.Add(1)
			go func(cpu, n int) {
				defer wg.Done()
				ring := prc.Ring(uint32(cpu))
				rec := core.Record{TraceID: 7, TPID: 1, CPU: uint32(cpu)}
				drainBuf := make([]byte, 0, core.MaxBufferBytes)
				for i := 0; i < n; i++ {
					dst := ring.Reserve(core.RecordSize)
					if dst == nil {
						drainBuf = ring.DrainInto(drainBuf[:0])
						continue
					}
					rec.Seq = uint64(i)
					rec.MarshalTo(dst)
					ring.Commit()
				}
			}(p, n)
		}
		wg.Wait()
	}
	for _, producers := range []int{1, 4, 8} {
		producers := producers
		b.Run(fmt.Sprintf("percpu-%dp", producers), func(b *testing.B) {
			run(b, producers, producers)
		})
		b.Run(fmt.Sprintf("shared-%dp", producers), func(b *testing.B) {
			run(b, producers, 1)
		})
	}
}

func BenchmarkPacketMarshalRoundTrip(b *testing.B) {
	p := &vnet.Packet{
		Eth: vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP:  vnet.IPv4Header{TTL: 64, Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
		UDP: &vnet.UDPHeader{SrcPort: 1, DstPort: 2},
		Payload: make([]byte, 1400),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := p.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vnet.UnmarshalPacket(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEventRate reports the raw event throughput of the
// discrete-event core.
func BenchmarkSimulatorEventRate(b *testing.B) {
	eng := sim.NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(10, tick)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, tick)
	eng.RunUntilIdle()
}
