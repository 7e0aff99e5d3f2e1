package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// Stage-alone replays: each layer's public entry point is called on its
// own, on inputs captured from a traced epoch, so its cost can be read
// without the rest of the pipeline around it.

const (
	// captureMax bounds the batches and frames kept per traced epoch.
	captureMax = 128
	// replayPasses repeats each cheap replay so its time is well above
	// the clock's resolution.
	replayPasses = 20
)

// capture holds one traced epoch's inputs for the replays: the first
// round's probe contexts per tracepoint, and the record batches and
// aggregate frames exactly as the collector decoded them.
type capture struct {
	mu      sync.Mutex
	ctxs    [2][][]byte
	batches []control.RecordBatch
	aggs    []control.AggBatch
}

func (c *capture) addBatch(b control.RecordBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) < captureMax {
		c.batches = append(c.batches, b)
	}
}

func (c *capture) addAgg(b control.AggBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.aggs) < captureMax {
		c.aggs = append(c.aggs, b)
	}
}

// addCtxs serializes the current round's probe contexts the way the
// attach path does before running a program.
func (c *capture) addCtxs(g *generator, kind pipeKind) {
	for _, ev := range g.events {
		pc := kernel.ProbeCtx{Site: tpSites[ev.tp], Pkt: &g.pkts[ev.pkt].pkt, CPU: g.cpu(ev), TimeNs: g.stamp(kind, ev, ev.atNs)}
		c.ctxs[ev.tp] = append(c.ctxs[ev.tp], core.BuildCtx(make([]byte, core.CtxSize), &pc))
	}
}

// replayEnv is a helper environment with a fixed clock whose perf output
// lands in a fixed buffer.
type replayEnv struct {
	out [core.RecordSize]byte
}

func (e *replayEnv) KtimeNs() uint64        { return 0 }
func (e *replayEnv) SMPProcessorID() uint32 { return 0 }
func (e *replayEnv) PrandomU32() uint32     { return 4 }
func (e *replayEnv) TracePrintk(string)     {}
func (e *replayEnv) PerfEventOutput(d []byte) bool {
	copy(e.out[:], d)
	return true
}

// replay runs the stage-alone replays of a pass's latest capture.
func replay(kind pipeKind, c *capture, dir string) (map[string]float64, error) {
	m := make(map[string]float64)
	if err := replayProgram(kind, c, m); err != nil {
		return nil, err
	}
	if kind == kindAggregates {
		if err := replayAggs(c, m); err != nil {
			return nil, err
		}
		return m, nil
	}
	if len(c.batches) == 0 {
		return nil, fmt.Errorf("replay: no record batches captured")
	}
	if err := replayRecordWire(c, m); err != nil {
		return nil, err
	}
	if err := replayStore(c, dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// replayProgram runs freshly compiled copies of the installed scripts
// over the captured contexts (fresh copies, so the live scripts' maps are
// untouched).
func replayProgram(kind pipeKind, c *capture, m map[string]float64) error {
	env := &replayEnv{}
	var runs int
	var elapsed time.Duration
	for tp := range c.ctxs {
		prog, err := script.Compile(scriptSpec(kind, tp))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		t0 := time.Now()
		for pass := 0; pass < replayPasses; pass++ {
			for _, ctx := range c.ctxs[tp] {
				if _, _, err := prog.Prog.Run(ctx, env); err != nil {
					return fmt.Errorf("replay: %w", err)
				}
			}
		}
		elapsed += time.Since(t0)
		runs += replayPasses * len(c.ctxs[tp])
	}
	if runs > 0 {
		m["ebpf.run_ns"] = float64(elapsed) / float64(runs)
	}
	return nil
}

// replayRecordWire times the ring drain and the v4 record frame codec.
func replayRecordWire(c *capture, m map[string]float64) error {
	ring, err := core.NewPerCPURing(numCPU, ringBytes)
	if err != nil {
		return err
	}
	var drain time.Duration
	var drained int
	buf := make([]byte, 0, 64<<10)
	var rec [core.RecordSize]byte
	for pass := 0; pass < replayPasses; pass++ {
		for i := range c.batches {
			for _, r := range c.batches[i].Records {
				r.MarshalTo(rec[:])
				if !ring.Emit(r.CPU, rec[:]) {
					return fmt.Errorf("replay: ring full")
				}
			}
			t0 := time.Now()
			buf = ring.DrainInto(buf[:0])
			recs, err := core.UnmarshalRecords(buf)
			drain += time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			drained += len(recs)
		}
	}
	m["core.drain_ns_per_record"] = float64(drain) / float64(drained)

	bodies := make([][]byte, len(c.batches))
	var enc, dec time.Duration
	var records, wireBytes int
	for pass := 0; pass < replayPasses; pass++ {
		for i := range c.batches {
			b := c.batches[i]
			t0 := time.Now()
			body, err := control.AppendBatchFrame(bodies[i][:0], &b)
			enc += time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			bodies[i] = body
			t0 = time.Now()
			_, err = control.DecodeBatchFrame(body)
			dec += time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			records += len(b.Records)
			wireBytes += len(body)
		}
	}
	m["control.encode_ns_per_record"] = float64(enc) / float64(records)
	m["control.decode_ns_per_record"] = float64(dec) / float64(records)
	m["control.wire_bytes_per_record"] = float64(wireBytes) / float64(records)
	return nil
}

// replayStore times the ledger, the segment store and the WAL alone on
// the captured batches. The WAL cost is a durable replay (admit, append,
// insert) minus an in-memory replay (admit, insert) of the same batches;
// each is repeated and the medians are taken.
func replayStore(c *capture, dir string, m map[string]float64) error {
	var records int
	for i := range c.batches {
		records += len(c.batches[i].Records)
	}

	db := tracedb.New()
	t0 := time.Now()
	seq := uint64(0)
	for pass := 0; pass < replayPasses; pass++ {
		for i := range c.batches {
			b := &c.batches[i]
			seq++
			db.AdmitBatch(b.Agent, 0, seq, len(b.Records), b.AgentTimeNs, 0)
		}
	}
	m["tracedb.admit_ns_per_batch"] = float64(time.Since(t0)) / float64(seq)

	// Spill writes make single replays noisy, so each is repeated, the
	// durable and in-memory replays alternate which runs first, and the
	// WAL cost is the median of the paired differences.
	const reps = 25
	var insert, walCost []float64
	for rep := 0; rep < reps; rep++ {
		d := filepath.Join(dir, fmt.Sprintf("replay-%d", rep))
		db := tracedb.NewWith(tracedb.Config{DataDir: filepath.Join(d, "insert")})
		t0 := time.Now()
		for i := range c.batches {
			db.Insert(c.batches[i].Records)
		}
		insert = append(insert, float64(time.Since(t0))/float64(records))

		var durable, memory float64
		for k := 0; k < 2; k++ {
			if (rep+k)%2 == 0 {
				ns, err := replayDurable(c, filepath.Join(d, "durable"))
				if err != nil {
					return err
				}
				durable = ns / float64(records)
			} else {
				memory = replayMemory(c, filepath.Join(d, "mem")) / float64(records)
			}
		}
		walCost = append(walCost, durable-memory)
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	m["tracedb.insert_ns_per_record"] = median(insert)
	m["tracedb.wal_ns_per_record"] = median(walCost)
	return nil
}

// replayMemory admits and inserts the captured batches into a fresh
// in-memory-ledger store and returns the elapsed nanoseconds.
func replayMemory(c *capture, dir string) float64 {
	db := tracedb.NewWith(tracedb.Config{DataDir: dir})
	t0 := time.Now()
	for i := range c.batches {
		b := &c.batches[i]
		db.AdmitBatch(b.Agent, 0, uint64(i+1), len(b.Records), b.AgentTimeNs, 0)
		db.Insert(b.Records)
	}
	return float64(time.Since(t0))
}

// replayDurable admits the captured batches through a fresh durable
// store (ledger, WAL append of the batches' wire bytes, insert) and
// returns the elapsed nanoseconds.
func replayDurable(c *capture, dir string) (float64, error) {
	db := tracedb.NewWith(tracedb.Config{DataDir: filepath.Join(dir, "data")})
	dur, _, err := tracedb.Recover(db, tracedb.NewAggStore(), tracedb.DurabilityConfig{
		Dir: filepath.Join(dir, "wal"), Fsync: tracedb.FsyncInterval,
	})
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	t0 := time.Now()
	for i := range c.batches {
		b := &c.batches[i]
		dur.AdmitRecordBatchRaw(b.Agent, 0, uint64(i+1), b.Records, b.RawRecords, b.AgentTimeNs, 0)
	}
	ns := float64(time.Since(t0))
	if err := dur.Close(); err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	return ns, nil
}

// replayAggs times the v5 aggregate frame codec and the aggregate merge.
func replayAggs(c *capture, m map[string]float64) error {
	if len(c.aggs) == 0 {
		return fmt.Errorf("replay: no aggregate frames captured")
	}
	var enc, dec time.Duration
	var frames, bytes int
	var body []byte
	for pass := 0; pass < replayPasses; pass++ {
		for i := range c.aggs {
			t0 := time.Now()
			out, err := control.AppendAggFrame(body[:0], &c.aggs[i])
			enc += time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			body = out
			t0 = time.Now()
			_, err = control.DecodeAggFrame(body)
			dec += time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			frames++
			bytes += len(body)
		}
	}
	m["control.agg_encode_us"] = float64(enc) / 1e3 / float64(frames)
	m["control.agg_decode_us"] = float64(dec) / 1e3 / float64(frames)
	m["control.agg_frame_bytes"] = float64(bytes) / float64(frames)

	store := tracedb.NewAggStore()
	t0 := time.Now()
	seq := uint64(0)
	for pass := 0; pass < replayPasses; pass++ {
		for i := range c.aggs {
			a := &c.aggs[i]
			seq++
			store.Admit(a.Agent, 0, seq, a.Scripts, a.AgentTimeNs, 0)
		}
	}
	m["tracedb.agg_merge_us"] = float64(time.Since(t0)) / 1e3 / float64(seq)
	return nil
}
