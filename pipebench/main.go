// Command pipebench is vNetTracer's end-to-end benchmark. It drives
// generated packets through the real tracing stack (probe sites, eBPF
// scripts, per-CPU rings, agents, a TCP collector with a write-ahead log
// and a spilling segment store, the paper's queries) or through the
// paper's simulated experiments, checks every answer, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//	go run . --workload records --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// metricDef is a metric's name and unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"flush_p50_us", "us"},
	{"query_s", "s"},
	{"store_bytes_per_record", "B"},
	{"alloc_bytes_per_event", "B"},
	{"repro_s", "s"},
	{"repro_alloc_mb", "MB"},
}

// wallClock gives, for each end-to-end metric read off the wall clock,
// the power of the host's slowness it carries: 1 for a time, -1 for a
// rate. An untraced run divides the host's speed out of them with the
// calibration loop (calib.go).
var wallClock = map[string]float64{
	"setup_s":      1,
	"events_per_s": -1,
	"flush_p50_us": 1,
	"query_s":      1,
	"repro_s":      1,
}

var perLayer = []metricDef{
	{"kernel.fire_ns", "ns"},
	{"kernel.fire_alloc_b", "B"},
	{"ebpf.run_ns", "ns"},
	{"ebpf.insns_per_run", "count"},
	{"core.drain_ns_per_record", "ns"},
	{"core.ring_drops", "count"},
	{"control.flush_self_us", "us"},
	{"control.flush_p99_us", "us"},
	{"control.rtt_self_us", "us"},
	{"control.encode_ns_per_record", "ns"},
	{"control.decode_ns_per_record", "ns"},
	{"control.wire_bytes_per_record", "B"},
	{"control.collector_us", "us"},
	{"control.agg_rtt_us", "us"},
	{"control.agg_frame_bytes", "B"},
	{"control.agg_encode_us", "us"},
	{"control.agg_decode_us", "us"},
	{"tracedb.admit_ns_per_batch", "ns"},
	{"tracedb.insert_ns_per_record", "ns"},
	{"tracedb.wal_ns_per_record", "ns"},
	{"tracedb.wal_bytes_per_record", "B"},
	{"tracedb.fsyncs", "count"},
	{"tracedb.extents_sealed", "count"},
	{"tracedb.spilled_bytes", "B"},
	{"tracedb.compression_ratio", "ratio"},
	{"tracedb.agg_admit_us", "us"},
	{"tracedb.agg_merge_us", "us"},
	{"tracedb.scan_s", "s"},
	{"tracedb.lookup_us", "us"},
	{"metrics.join_s", "s"},
	{"metrics.loss_s", "s"},
	{"metrics.flow_tput_s", "s"},
	{"metrics.hist_query_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"attr.unattributed_share", "ratio"},
	{"attr.tracing_overhead", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"kernel.cpu_share", "ratio"},
	{"vnet.cpu_share", "ratio"},
	{"ovs.cpu_share", "ratio"},
	{"hyper.cpu_share", "ratio"},
	{"ebpf.cpu_share", "ratio"},
	{"control.cpu_share", "ratio"},
	{"tracedb.cpu_share", "ratio"},
	{"runtime.malloc_gc_share", "ratio"},
	{"failed_ratio", "ratio"},
}

const (
	// refEpochs sizes the traced reference passes, and the untraced
	// records reference on aggregates, which only needs the storage
	// count (it repeats almost exactly).
	refEpochs = 3
	// minSetups is the least number of stack bring-ups behind setup_s.
	minSetups = 7
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "records, aggregates or paper-sim")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured time of each load of the run: the workload's own and each timed reference load")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's stores")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *workdir))
}

// bench accumulates one invocation's passes.
type bench struct {
	seed    int64
	dir     string
	traced  bool
	pipes   []*pipelinePass
	sims    []*simPass
	profile map[string]float64
}

func run(workload string, seed int64, seconds float64, traced bool, workdir string) int {
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	tier, err := ebpfTier()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	env, _ := json.Marshal(collectEnv(dir, tier))
	fmt.Printf("env: %s\n", env)

	b := &bench{seed: seed, dir: dir, traced: traced}
	switch workload {
	case "records":
		err = b.pipelineWorkload(kindRecords, seconds)
	case "aggregates":
		err = b.pipelineWorkload(kindAggregates, seconds)
	case "paper-sim":
		err = b.paperSimWorkload(seconds)
	default:
		err = fmt.Errorf("unknown workload %q (want records, aggregates or paper-sim)", workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	for _, f := range b.allFindings() {
		fmt.Println("finding:", f)
	}
	for _, p := range b.pipes {
		if len(p.flushUs) > 0 {
			fmt.Println("info:", p.flushSummary())
			fmt.Println("info:", p.epochSummary())
		}
		if p.tracedFires > 0 {
			fmt.Println("info:", p.attribution())
		}
	}
	for _, s := range b.sims {
		fmt.Println("info:", s.summary())
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// pipelineWorkload runs records or aggregates as the workload's own
// load, interleaved with the reference loads that measure the end-to-end
// metrics it does not exercise. A traced run measures its own load
// untraced, then traced, then a traced reference pass of the other
// pipeline kind.
func (b *bench) pipelineWorkload(kind pipeKind, seconds float64) error {
	own := b.pipe(kind)
	if !b.traced {
		loads := []*load{own.load(false, seconds, 3)}
		if kind == kindAggregates {
			loads = append(loads, b.pipe(kindRecords).load(false, 0, refEpochs))
		}
		loads = append(loads, b.sim().load(seconds, 3))
		if err := runLoads(loads...); err != nil {
			return err
		}
		return own.extraSetups(minSetups)
	}
	if err := runLoads(own.load(false, seconds/2, 2)); err != nil {
		return err
	}
	if err := b.profiled(func() error { return runLoads(own.load(true, seconds/2, 2)) }); err != nil {
		return err
	}
	other := kindAggregates
	if kind == kindAggregates {
		other = kindRecords
	}
	return runLoads(b.pipe(other).load(true, 0, refEpochs))
}

// paperSimWorkload runs the experiment set as the workload's own load,
// interleaved with the reference records load.
func (b *bench) paperSimWorkload(seconds float64) error {
	s := b.sim()
	rec := b.pipe(kindRecords)
	if !b.traced {
		if err := runLoads(s.load(seconds, 3), rec.load(false, seconds, 3)); err != nil {
			return err
		}
		return rec.extraSetups(minSetups)
	}
	if err := b.profiled(func() error { return runLoads(s.load(seconds, 3)) }); err != nil {
		return err
	}
	if err := runLoads(rec.load(false, 0, refEpochs)); err != nil {
		return err
	}
	if err := runLoads(rec.load(true, 0, refEpochs)); err != nil {
		return err
	}
	return runLoads(b.pipe(kindAggregates).load(true, 0, refEpochs))
}

// load is one kind of work in a run: step runs one unit of it (a store
// epoch or an experiment set) and returns the time it measured. A load is
// done when its steps have measured budget seconds and at least min steps
// have run.
type load struct {
	step   func() (time.Duration, error)
	budget float64
	min    int
	spent  float64
	steps  int
}

func (l *load) done() bool { return l.steps >= l.min && l.spent >= l.budget }

// progress is the share of the load that has run.
func (l *load) progress() float64 {
	if l.budget > 0 {
		return l.spent / l.budget
	}
	return float64(l.steps) / float64(l.min)
}

// runLoads interleaves the loads step by step, always stepping the one
// that has made the least progress, so each load is sampled across the
// whole run and not in one stretch of it. The host's speed drifts over
// tens of seconds; a load measured in a stretch of its own would carry
// that stretch's speed into its median.
func runLoads(loads ...*load) error {
	for {
		var next *load
		for _, l := range loads {
			if !l.done() && (next == nil || l.progress() < next.progress()) {
				next = l
			}
		}
		if next == nil {
			return nil
		}
		d, err := next.step()
		if err != nil {
			return err
		}
		next.spent += d.Seconds()
		next.steps++
	}
}

func (b *bench) pipe(kind pipeKind) *pipelinePass {
	p := newPipelinePass(kind, b.seed, filepath.Join(b.dir, fmt.Sprintf("pass-%d", len(b.pipes))))
	b.pipes = append(b.pipes, p)
	return p
}

func (b *bench) sim() *simPass {
	s := &simPass{seed: b.seed, calibrated: !b.traced}
	b.sims = append(b.sims, s)
	return s
}

// profiled runs fn under the CPU profiler and folds the profile into
// per-package shares. The first profiled phase is the workload's own
// load; later ones are not profiled.
func (b *bench) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		return err
	}
	b.profile = shares
	return nil
}

func (b *bench) allFindings() []string {
	var out []string
	// The attribution check comes first: if the layers' self times on the
	// record path do not add up to the untraced wall time, that gap is
	// the finding that matters before any per-layer number.
	for _, p := range b.pipes {
		if p.kind != kindRecords || p.tracedFires == 0 || p.fires == 0 {
			continue
		}
		u := p.perLayer()["attr.unattributed_share"]
		if math.Abs(u) > 0.2 {
			out = append(out, fmt.Sprintf("records: layer self times miss the untraced wall time by %.1f%% (unattributed share %.3f, outside ±20%%)", 100*u, u))
		}
	}
	for _, p := range b.pipes {
		out = append(out, p.findings...)
	}
	for _, s := range b.sims {
		out = append(out, s.findings...)
	}
	return out
}

// result assembles the metrics of the run's mode. Reference passes run
// first in the list of sources, so the workload's own measurement of a
// metric overrides a reference one.
func (b *bench) result() (result, error) {
	var attempted, failed uint64
	for _, p := range b.pipes {
		attempted += p.attempted
		failed += p.failed
	}
	for _, s := range b.sims {
		attempted += s.attempted
		failed += s.failed
	}
	values := make(map[string]float64)
	merge := func(m map[string]float64) {
		for k, v := range m {
			values[k] = v
		}
	}
	defs := endToEnd
	if !b.traced {
		for i := len(b.sims) - 1; i >= 0; i-- {
			merge(b.sims[i].endToEnd())
		}
		for i := len(b.pipes) - 1; i >= 0; i-- {
			merge(b.pipes[i].endToEnd())
		}
		var calibS []float64
		for _, s := range b.sims {
			calibS = append(calibS, s.calibS...)
		}
		toReferenceHost(values, calibS)
	} else {
		defs = perLayer
		for i := len(b.pipes) - 1; i >= 0; i-- {
			p := b.pipes[i]
			if p.tracedFires == 0 {
				continue
			}
			merge(p.perLayer())
			r, err := replay(p.kind, p.capt, p.dir)
			if err != nil {
				return result{}, err
			}
			merge(r)
		}
		merge(b.profile)
		if attempted > 0 {
			values["failed_ratio"] = float64(failed) / float64(attempted)
		}
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}
