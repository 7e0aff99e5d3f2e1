package kernel_test

import (
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// raceEnabled is set by race_enabled_test.go under -race, whose
// instrumentation allocates on paths that otherwise do not.
var raceEnabled bool

// recordProbe deploys the canonical record script (UDP to :9000, 48-byte
// record) at udp_recvmsg on a one-CPU machine, as an agent would, and
// returns the machine plus a matching probe context.
func recordProbe(tb testing.TB) (*core.Machine, *kernel.ProbeCtx) {
	tb.Helper()
	c, err := script.Compile(script.Spec{
		Name:    "record",
		TPID:    1,
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []script.Action{script.ActionRecord},
	})
	if err != nil {
		tb.Fatal(err)
	}
	node := kernel.NewNode(sim.NewEngine(1), kernel.NodeConfig{Name: "n0", NumCPU: 1})
	m, err := core.NewMachine(node, core.MaxBufferBytes)
	if err != nil {
		tb.Fatal(err)
	}
	at := core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}
	if _, err := m.Attach(c.Prog, at, core.DefaultCostModel()); err != nil {
		tb.Fatal(err)
	}
	pc := &kernel.ProbeCtx{
		Site: kernel.SiteUDPRecvmsg,
		Pkt: &vnet.Packet{
			IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
			UDP:     &vnet.UDPHeader{SrcPort: 1, DstPort: 9000},
			TraceID: 7,
		},
		TimeNs: 1,
	}
	return m, pc
}

// TestProbeFireRecordAllocFree pins the zero-allocation claim from
// tracepoint hit to ring commit: firing a site with the record script
// attached runs the program and commits its record without allocating.
func TestProbeFireRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m, pc := recordProbe(t)
	const runs = 1000 // 48 KB of records: fits the ring, no drain inside
	allocs := testing.AllocsPerRun(runs, func() { m.Node.Probes.Fire(pc) })
	if allocs != 0 {
		t.Fatalf("Fire allocates %.2f times per firing, want 0", allocs)
	}
	recs, err := core.UnmarshalRecords(m.Ring.Drain())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("ring holds %d records, want %d", len(recs), runs+1)
	}
}

// BenchmarkProbeFire measures one probe firing with the record script
// attached: snapshot the site's handlers, run the optimized program,
// commit the record to the per-CPU ring (drained when full).
func BenchmarkProbeFire(b *testing.B) {
	m, pc := recordProbe(b)
	ring := m.Ring.Ring(0)
	buf := make([]byte, 0, core.MaxBufferBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Used()+core.RecordSize > ring.Cap() {
			buf = ring.DrainInto(buf[:0])
		}
		m.Node.Probes.Fire(pc)
	}
}
