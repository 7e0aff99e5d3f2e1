// Package control implements vNetTracer's control plane (paper Figure 2):
// the control data dispatcher on the master node that formats user
// requirements into control packages and ships them to agents; the agent
// daemons on monitored machines that compile, load, attach, and flush
// trace scripts; and the raw data collector that gathers records into the
// trace database and doubles as the agents' heartbeat monitor.
//
// The control plane is transport-agnostic: components connect in-process
// for simulations, or over a length-prefixed JSON TCP protocol
// (internal/control/tcp.go) for the distributed CLI.
package control

import (
	"vnettracer/internal/core"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// ControlPackage is the unit the dispatcher ships to an agent: scripts to
// install and script names to remove. The paper: "we created highly
// modularized control package, which includes the tracing rules,
// tracepoint locations, actions and global configurations".
type ControlPackage struct {
	// Install lists trace scripts to compile, load, and attach.
	Install []script.Spec `json:"install,omitempty"`
	// Uninstall lists script names to detach and unload.
	Uninstall []string `json:"uninstall,omitempty"`
	// FlushIntervalNs, when positive, re-arms the agent's periodic flush.
	FlushIntervalNs int64 `json:"flush_interval_ns,omitempty"`
	// ShipAggregates turns on the agent's periodic aggregate drain: each
	// flush snapshot-and-resets the scripts' aggregation maps and ships
	// the result as a compact v5 frame instead of leaving the metrics for
	// userspace map readers. A Replace package re-asserts the flag's
	// value; an incremental package can only turn it on.
	ShipAggregates bool `json:"ship_aggregates,omitempty"`
	// Replace makes the package a full desired-state declaration: the
	// agent detaches and unloads everything currently installed before
	// applying Install, making the push idempotent. The supervisor uses
	// it for retries and post-restart re-provisioning, where the agent's
	// current state is unknown.
	Replace bool `json:"replace,omitempty"`
}

// RecordBatch is what agents ship to the collector: drained raw records
// plus a heartbeat timestamp on the agent's clock.
type RecordBatch struct {
	Agent       string        `json:"agent"`
	AgentTimeNs int64         `json:"agent_time_ns"`
	Records     []core.Record `json:"records"`
	// RingDrops reports how many records the kernel buffer rejected since
	// the last batch, surfacing trace loss under overload.
	RingDrops uint64 `json:"ring_drops,omitempty"`
	// Seq is the agent's monotonically increasing batch sequence number,
	// assigned when the batch is first drained and kept across retries.
	// The collector's per-agent ledger uses it to drop re-sent batches
	// (exactly-once ingest over an at-least-once transport) and to count
	// gaps as missing batches. Zero means unsequenced: bare heartbeats,
	// which are ingested unconditionally.
	Seq uint64 `json:"seq,omitempty"`
	// Epoch is the agent's registration lease from the dispatcher,
	// monotonically increasing across agent restarts. The collector
	// fences sequenced batches carrying an epoch older than the newest
	// it has seen for the agent (a zombie pre-restart process), keeping
	// them out of exactly-once accounting. Zero means unleased
	// (standalone agents) and is never fenced.
	Epoch uint64 `json:"epoch,omitempty"`
	// Degraded is the agent's degradation level when the batch was
	// shipped: 0 full capture, 1 stretched flush, 2 sampling. Recorded
	// in the ledger for operator visibility.
	Degraded uint8 `json:"degraded,omitempty"`
	// RawRecords optionally carries Records' canonical wire encoding —
	// len(Records)*core.RecordSize bytes in core.Record.MarshalTo layout.
	// The binary frame decoder sets it (aliasing the frame body, which the
	// transport never reuses) so durable sinks can log the record bytes
	// verbatim instead of re-marshalling them. It is advisory: producers
	// may leave it nil, and any consumer that mutates Records must drop
	// it. Never serialized — encoders marshal from Records.
	RawRecords []byte `json:"-"`
}

// AggBatch is an aggregate frame: the agent's periodic snapshot-and-reset
// drain of its scripts' in-probe aggregation maps (counters, per-CPU
// hits, log2 latency histograms, per-flow sums). It carries the same
// heartbeat/sequence/epoch identity as RecordBatch, but sequence numbers
// live in a dedicated space — agents number record batches and aggregate
// frames independently — admitted by the collector's aggregate ledger
// with identical exactly-once and zombie-fencing semantics. Aggregates
// are additive, so dedup is what keeps a retried frame from doubling
// every metric it carries.
type AggBatch struct {
	Agent       string              `json:"agent"`
	AgentTimeNs int64               `json:"agent_time_ns"`
	Scripts     []tracedb.ScriptAgg `json:"scripts,omitempty"`
	// Seq is the frame's number in the agent's aggregate sequence space,
	// assigned at drain time and stable across retries. Zero is never
	// shipped: empty drains are skipped without consuming a number.
	Seq uint64 `json:"seq,omitempty"`
	// Epoch is the agent's registration lease (see RecordBatch.Epoch).
	Epoch uint64 `json:"epoch,omitempty"`
	// Degraded is the agent's degradation level at drain time.
	Degraded uint8 `json:"degraded,omitempty"`
}

// AggSink consumes aggregate frames (the collector, or a transport to
// it). Sinks that predate in-probe aggregation simply do not implement
// it; agents detect that and fail closed with a counted error instead of
// shipping frames the far end cannot ingest.
type AggSink interface {
	HandleAgg(b AggBatch) error
}

// BatchAck is the collector's reply to a batch: backpressure telemetry
// the agent's degradation controller feeds on. QueueDepth/QueueCap
// describe the collector's ingest queue at accept time; a synchronous
// collector reports 0/0 (no pressure signal).
type BatchAck struct {
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
}

// RecordSink consumes record batches (the collector, or a transport to
// it).
type RecordSink interface {
	HandleBatch(b RecordBatch) error
}

// AckingRecordSink is a RecordSink that also returns backpressure
// telemetry with each accepted batch. Agents probe for it and fall back
// to plain HandleBatch (no degradation signal) when absent.
type AckingRecordSink interface {
	RecordSink
	HandleBatchAck(b RecordBatch) (BatchAck, error)
}

// ControlClient pushes control packages to one agent (directly, or over a
// transport).
type ControlClient interface {
	Apply(pkg ControlPackage) error
}
