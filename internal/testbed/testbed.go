// Package testbed assembles the paper's experimental setups from the
// simulated substrates and drives every figure's experiment: overhead
// analysis (Fig. 7), OVS congestion (Figs. 8-9), Xen scheduler tail
// latency (Figs. 10-11), and container overlay bottlenecks (Figs. 12-13).
//
// Experiments measure through the real tracing pipeline: trace specs are
// pushed by a dispatcher to per-machine agents, compiled to eBPF, verified,
// interpreted per packet, flushed to the collector, and analyzed out of
// the trace database — never read off simulator internals (except where a
// figure explicitly compares against application-level ground truth).
package testbed

import (
	"errors"
	"fmt"
	"sort"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// Handy unit aliases.
const (
	US  = int64(sim.Microsecond)
	MS  = int64(sim.Millisecond)
	SEC = int64(sim.Second)

	// Gbps / Mbps in bits per second.
	Mbps = int64(1_000_000)
	Gbps = int64(1_000_000_000)
)

// Tracing bundles one experiment's tracer deployment: dispatcher,
// collector, trace DB, and one agent per machine.
type Tracing struct {
	DB         *tracedb.DB
	Collector  *control.Collector
	Dispatcher *control.Dispatcher
	Supervisor *control.Supervisor

	agents map[string]*control.Agent
	labels map[string]uint32
}

// NewTracing creates an empty tracer deployment.
func NewTracing() *Tracing {
	db := tracedb.New()
	disp := control.NewDispatcher()
	sup := control.NewSupervisor(disp)
	sup.SetLedger(db)
	return &Tracing{
		DB:         db,
		Collector:  control.NewCollector(db),
		Dispatcher: disp,
		Supervisor: sup,
		agents:     make(map[string]*control.Agent),
		labels:     make(map[string]uint32),
	}
}

// AddMachine registers a machine under an agent, granting its epoch
// lease.
func (tr *Tracing) AddMachine(m *core.Machine) (*control.Agent, error) {
	name := m.Node.Name
	if _, dup := tr.agents[name]; dup {
		return nil, fmt.Errorf("testbed: machine %q already added", name)
	}
	agent := control.NewAgent(name, m, tr.Collector)
	if err := tr.Dispatcher.Register(name, agent); err != nil {
		return nil, err
	}
	agent.SetEpoch(tr.Dispatcher.Epoch(name))
	tr.agents[name] = agent
	return agent, nil
}

// Agent returns a machine's agent.
func (tr *Tracing) Agent(machine string) (*control.Agent, bool) {
	a, ok := tr.agents[machine]
	return a, ok
}

// InstallRecord pushes a record-action script to a machine's agent; the
// label names the tracepoint and maps to an allocated TPID. It returns the
// TPID.
func (tr *Tracing) InstallRecord(machine, label string, at core.AttachPoint, filter script.Filter) (uint32, error) {
	tpid := tr.Dispatcher.AllocTPID(label)
	tr.labels[label] = tpid
	if _, err := tr.DB.CreateTable(tpid, label); err != nil {
		return 0, err
	}
	spec := script.Spec{
		Name:    label,
		TPID:    tpid,
		Attach:  at,
		Filter:  filter,
		Actions: []script.Action{script.ActionRecord},
	}
	if err := tr.Desire(machine, control.ControlPackage{Install: []script.Spec{spec}}); err != nil {
		return 0, err
	}
	return tpid, nil
}

// Desire records pkg as part of the machine's desired state and pushes
// the merged state through the supervisor, so a later re-provision (agent
// restart) restores it automatically.
func (tr *Tracing) Desire(machine string, pkg control.ControlPackage) error {
	var nowNs int64
	if a, ok := tr.agents[machine]; ok {
		nowNs = a.Machine().Node.Clock.NowNs()
	}
	return tr.Supervisor.Desire(machine, pkg, nowNs)
}

// InstallSpec pushes an arbitrary spec, creating its table when it records.
func (tr *Tracing) InstallSpec(machine string, spec script.Spec) error {
	if spec.TPID == 0 {
		spec.TPID = tr.Dispatcher.AllocTPID(spec.Name)
	}
	tr.labels[spec.Name] = spec.TPID
	for _, a := range spec.Actions {
		if a == script.ActionRecord {
			if _, err := tr.DB.CreateTable(spec.TPID, spec.Name); err != nil {
				return err
			}
			break
		}
	}
	return tr.Desire(machine, control.ControlPackage{Install: []script.Spec{spec}})
}

// StartFlushing arms every agent's periodic ring-buffer flush. Call after
// installing scripts; without it long experiments overflow the bounded
// kernel buffer (the paper dumps the buffer periodically for the same
// reason).
func (tr *Tracing) StartFlushing(intervalNs int64) {
	for _, name := range tr.agentNames() {
		tr.agents[name].StartFlushing(intervalNs)
	}
}

// agentNames returns machine names in sorted order: flush-timer creation
// order feeds the deterministic engine, so it must not follow map order.
func (tr *Tracing) agentNames() []string {
	names := make([]string, 0, len(tr.agents))
	for name := range tr.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FlushAll drains every agent to the collector (offline collection at
// experiment end). Every agent is flushed even if some fail; failures
// come back joined so no machine's final records are silently stranded.
func (tr *Tracing) FlushAll() error {
	var errs []error
	for _, name := range tr.agentNames() {
		if err := tr.agents[name].Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Table returns the trace table behind a label.
func (tr *Tracing) Table(label string) (*tracedb.Table, error) {
	tpid, ok := tr.labels[label]
	if !ok {
		return nil, fmt.Errorf("testbed: unknown tracepoint label %q", label)
	}
	t, ok := tr.DB.Table(tpid)
	if !ok {
		return nil, fmt.Errorf("testbed: no table for label %q", label)
	}
	return t, nil
}

// MustTable is Table for experiment code with known-good labels.
func (tr *Tracing) MustTable(label string) *tracedb.Table {
	t, err := tr.Table(label)
	if err != nil {
		panic(err)
	}
	return t
}

// LatencyStats summarises an experiment's latency distribution in
// microseconds, the unit the paper's figures use.
type LatencyStats struct {
	Count  int
	MeanUs float64
	P50Us  float64
	P99Us  float64
	P999Us float64
	MaxUs  float64
}

// NewLatencyStats converts nanosecond samples.
func NewLatencyStats(ns []int64) LatencyStats {
	s := metrics.Summarize(ns)
	return LatencyStats{
		Count:  s.Count,
		MeanUs: s.MeanNs / 1e3,
		P50Us:  float64(s.P50Ns) / 1e3,
		P99Us:  float64(s.P99Ns) / 1e3,
		P999Us: float64(s.P999Ns) / 1e3,
		MaxUs:  float64(s.MaxNs) / 1e3,
	}
}

func (l LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
		l.Count, l.MeanUs, l.P50Us, l.P99Us, l.P999Us, l.MaxUs)
}

// stackDev builds a simple processing device on eng. Per-packet service
// time is normally distributed around procNs (20% relative deviation) so
// latency distributions have realistic spread.
func stackDev(eng *sim.Engine, name string, ifindex int, procNs int64, out func(*vnet.Packet)) *vnet.NetDev {
	dist := sim.NewDist(eng)
	return vnet.NewNetDev(eng, vnet.NetDevConfig{
		Name:    name,
		Ifindex: ifindex,
		ProcNs:  func(*vnet.Packet) int64 { return dist.Normal(procNs, procNs/5) },
		Out:     out,
	})
}

// newMachine wraps a node in a Machine with the largest legal ring buffer.
func newMachine(node *kernel.Node) *core.Machine {
	m, err := core.NewMachine(node, core.MaxBufferBytes)
	if err != nil {
		panic(err) // static size; cannot fail
	}
	return m
}
