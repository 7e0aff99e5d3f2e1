package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// pipeKind selects what the trace scripts do with a matching packet.
type pipeKind int

const (
	// kindRecords emits a 48-byte record per match.
	kindRecords pipeKind = iota
	// kindAggregates counts, histograms and sums per flow in the probe
	// and ships the maps as aggregate frames.
	kindAggregates
)

func (k pipeKind) String() string {
	if k == kindAggregates {
		return "aggregates"
	}
	return "records"
}

// ringBytes is each per-CPU ring's capacity: the largest legal ring, as
// the agent CLI and the testbed deploy it.
const ringBytes = core.MaxBufferBytes

// Tracepoints: 0 is udp_send_skb on the sender node, 1 is udp_recvmsg on
// the receiver node. Each node has its own agent.
var (
	tpSites  = [2]string{kernel.SiteUDPSendSkb, kernel.SiteUDPRecvmsg}
	tpNames  = [2]string{"tx", "rx"}
	tpAgents = [2]string{"agent-tx", "agent-rx"}
)

// scriptSpec is the trace script installed at tracepoint tp.
func scriptSpec(kind pipeKind, tp int) script.Spec {
	actions := []script.Action{script.ActionRecord}
	if kind == kindAggregates {
		actions = []script.Action{script.ActionCount, script.ActionHist, script.ActionFlowCount}
	}
	return script.Spec{
		Name:    tpNames[tp],
		TPID:    uint32(tp + 1),
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: tpSites[tp]},
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: tracedPort},
		Actions: actions,
		NumCPU:  numCPU,
	}
}

// sinkProbe sits between an agent and its TCPSink and times each call:
// the sink span covers encode, the loopback round trip and the
// collector's work.
type sinkProbe struct {
	tcp    *control.TCPSink
	tr     *tracer
	parent int // the open flush span, set by the generator
}

func (s *sinkProbe) HandleBatch(b control.RecordBatch) error {
	_, err := s.HandleBatchAck(b)
	return err
}

func (s *sinkProbe) HandleBatchAck(b control.RecordBatch) (control.BatchAck, error) {
	id := s.tr.beginSink("control.sink", s.parent)
	ack, err := s.tcp.HandleBatchAck(b)
	s.tr.endSink(id)
	return ack, err
}

func (s *sinkProbe) HandleAgg(b control.AggBatch) error {
	id := s.tr.beginSink("control.agg_sink", s.parent)
	err := s.tcp.HandleAgg(b)
	s.tr.endSink(id)
	return err
}

// collectorProbe sits between the TCP server and the Collector. It times
// admission and, while capturing, keeps the decoded batches exactly as
// the collector received them for the stage-alone replays.
type collectorProbe struct {
	col  *control.Collector
	tr   *tracer
	capt *capture
}

func (c *collectorProbe) HandleBatch(b control.RecordBatch) error {
	_, err := c.HandleBatchAck(b)
	return err
}

func (c *collectorProbe) HandleBatchAck(b control.RecordBatch) (control.BatchAck, error) {
	id := c.tr.begin("control.collector", c.tr.sinkParent())
	ack, err := c.col.HandleBatchAck(b)
	c.tr.end(id)
	if c.capt != nil && len(b.Records) > 0 {
		c.capt.addBatch(b)
	}
	return ack, err
}

func (c *collectorProbe) HandleAgg(b control.AggBatch) error {
	id := c.tr.begin("tracedb.agg_admit", c.tr.sinkParent())
	err := c.col.HandleAgg(b)
	c.tr.end(id)
	if c.capt != nil {
		c.capt.addAgg(b)
	}
	return err
}

// stack is one complete tracing deployment: a durable collector behind a
// TCP server on loopback, and two simulated nodes whose agents ship to
// it over one connection each.
type stack struct {
	dir    string
	db     *tracedb.DB
	aggs   *tracedb.AggStore
	dur    *tracedb.Durability
	col    *control.Collector
	srv    *control.Server
	eng    *sim.Engine
	nodes  [2]*kernel.Node
	agents [2]*control.Agent
	sinks  [2]*sinkProbe
}

// newStack brings a stack up to the point of the first probe fire:
// store recovery (a cold start), server listen, agent Apply (compile,
// verify, lower, attach) and one heartbeat flush per agent, which dials
// the connections.
func newStack(dir string, kind pipeKind, tr *tracer, capt *capture) (*stack, error) {
	s := &stack{dir: dir}
	s.db = tracedb.NewWith(tracedb.Config{DataDir: filepath.Join(dir, "data")})
	s.aggs = tracedb.NewAggStore()
	dur, _, err := tracedb.Recover(s.db, s.aggs, tracedb.DurabilityConfig{
		Dir:   filepath.Join(dir, "wal"),
		Fsync: tracedb.FsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("recover store: %w", err)
	}
	s.dur = dur
	s.col = control.NewCollectorWith(s.db, s.aggs)
	s.col.SetDurability(dur)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dur.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.srv = control.Serve(ln, nil, &collectorProbe{col: s.col, tr: tr, capt: capt})
	addr := s.srv.Addr().String()
	s.eng = sim.NewEngine(1)
	for i := range s.nodes {
		node := kernel.NewNode(s.eng, kernel.NodeConfig{Name: tpAgents[i], NumCPU: numCPU, Seed: int64(i + 1)})
		m, err := core.NewMachine(node, ringBytes)
		if err != nil {
			s.close()
			return nil, err
		}
		sp := &sinkProbe{tcp: control.NewTCPSink(addr), tr: tr, parent: -1}
		a := control.NewAgent(tpAgents[i], m, sp)
		s.nodes[i], s.agents[i], s.sinks[i] = node, a, sp
		pkg := control.ControlPackage{
			Install:        []script.Spec{scriptSpec(kind, i)},
			ShipAggregates: kind == kindAggregates,
		}
		if err := a.Apply(pkg); err != nil {
			s.close()
			return nil, fmt.Errorf("apply: %w", err)
		}
		if err := a.Flush(); err != nil {
			s.close()
			return nil, fmt.Errorf("first heartbeat: %w", err)
		}
	}
	return s, nil
}

// close tears the stack down and deletes its files.
func (s *stack) close() error {
	for _, sp := range s.sinks {
		if sp != nil {
			sp.tcp.Close()
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
	var err error
	if s.dur != nil {
		err = s.dur.Close()
	}
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}
