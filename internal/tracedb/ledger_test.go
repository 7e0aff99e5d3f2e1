package tracedb

import (
	"testing"

	"vnettracer/internal/core"
)

// TestHeartbeatOutOfOrderKeepsMax is the regression for Heartbeat blindly
// overwriting the last-seen time: with async ingest workers batches can be
// processed out of order, and an older AgentTimeNs must not regress the
// ledger and falsely declare a live agent dead.
func TestHeartbeatOutOfOrderKeepsMax(t *testing.T) {
	db := New()
	db.Heartbeat("a", 1000)
	db.Heartbeat("a", 400) // older batch processed late
	if dead := db.DeadAgents(1100, 300); len(dead) != 0 {
		t.Fatalf("live agent declared dead after out-of-order heartbeat: %v", dead)
	}
	l, ok := db.Ledger("a")
	if !ok || l.LastSeenNs != 1000 {
		t.Fatalf("ledger last seen = %+v, want 1000", l)
	}
	// A genuinely newer heartbeat still advances it.
	db.Heartbeat("a", 2000)
	if l, _ := db.Ledger("a"); l.LastSeenNs != 2000 {
		t.Fatalf("last seen = %d, want 2000", l.LastSeenNs)
	}
}

// TestAdmitBatchDedupAndReorder exercises the exactly-once ledger at
// epoch 0 (an unleased agent): fresh seqs accepted once, duplicates
// rejected, and out-of-order arrival parks above the high-water mark
// until the gap fills.
func TestAdmitBatchDedupAndReorder(t *testing.T) {
	db := New()
	admit := func(agent string, seq uint64) BatchStatus {
		return db.AdmitBatch(agent, 0, seq, 1, 0, 0)
	}
	for _, seq := range []uint64{1, 2} {
		if st := admit("a", seq); st != BatchFresh {
			t.Fatalf("fresh seq %d classified %v", seq, st)
		}
	}
	if admit("a", 2) != BatchDuplicate {
		t.Fatal("duplicate seq 2 accepted")
	}
	if admit("a", 1) != BatchDuplicate {
		t.Fatal("duplicate seq 1 below high-water accepted")
	}
	// Out of order: 5 parks pending, then 3 and 4 fill the gap.
	if admit("a", 5) != BatchFresh {
		t.Fatal("out-of-order seq 5 rejected")
	}
	l, _ := db.Ledger("a")
	if l.HighWaterSeq != 2 || l.PendingBatches != 1 || l.MaxSeq != 5 || l.MissingBatches != 2 {
		t.Fatalf("ledger after reorder = %+v", l)
	}
	if admit("a", 5) != BatchDuplicate {
		t.Fatal("duplicate pending seq 5 accepted")
	}
	if admit("a", 3) != BatchFresh || admit("a", 4) != BatchFresh {
		t.Fatal("gap-filling seqs rejected")
	}
	l, _ = db.Ledger("a")
	if l.HighWaterSeq != 5 || l.PendingBatches != 0 || l.MissingBatches != 0 {
		t.Fatalf("ledger after gap fill = %+v", l)
	}
	if l.DupBatches != 3 {
		t.Fatalf("dup batches = %d, want 3", l.DupBatches)
	}
	// Seq 0 is unsequenced: always fresh, never recorded.
	if admit("a", 0) != BatchFresh || admit("a", 0) != BatchFresh {
		t.Fatal("unsequenced batch rejected")
	}
	if l, _ := db.Ledger("a"); l.HighWaterSeq != 5 || l.DupBatches != 3 {
		t.Fatalf("unsequenced batches touched the seq ledger: %+v", l)
	}
	// Ledgers are per agent.
	if admit("b", 5) != BatchFresh {
		t.Fatal("agent b's seq 5 rejected by agent a's ledger")
	}
}

// TestLedgerCountsMissing: a permanent gap (the agent evicted the batch
// from its spool) stays visible as a missing batch.
func TestLedgerCountsMissing(t *testing.T) {
	db := New()
	db.AdmitBatch("a", 0, 1, 1, 0, 0)
	db.AdmitBatch("a", 0, 4, 1, 0, 0) // 2 and 3 never arrive
	l, _ := db.Ledger("a")
	if l.MissingBatches != 2 {
		t.Fatalf("missing = %d, want 2", l.MissingBatches)
	}
	if _, ok := db.Ledger("ghost"); ok {
		t.Fatal("ledger for unknown agent")
	}
}

// TestAlignClampsAtZero is the regression for skew alignment computing
// uint64(int64(TimeNs) - skew) and wrapping to a huge timestamp when a
// large positive skew exceeds an early record's time.
func TestAlignClampsAtZero(t *testing.T) {
	db := New()
	db.Insert([]core.Record{
		{TPID: 1, TraceID: 1, TimeNs: 100},
		{TPID: 1, TraceID: 2, TimeNs: 5000},
	})
	tbl, _ := db.Table(1)
	db.SetSkew(1, 1000) // exceeds the first record's timestamp

	want := map[uint32]uint64{1: 0, 2: 4000}
	tbl.ScanAligned(func(r core.Record) bool {
		if r.TimeNs != want[r.TraceID] {
			t.Fatalf("ScanAligned trace %d = %d, want %d", r.TraceID, r.TimeNs, want[r.TraceID])
		}
		return true
	})
	r, ok := tbl.FirstByTraceID(1)
	if !ok || r.TimeNs != 0 {
		t.Fatalf("FirstByTraceID = %d, want clamped 0", r.TimeNs)
	}
}

// TestAlignNegativeSkew: a node whose clock runs *behind* the collector
// reference has a negative skew estimate; subtracting it must shift
// timestamps forward without wrapping or clamping — the clamp guards
// underflow only, and must never fire on the negative-skew side.
func TestAlignNegativeSkew(t *testing.T) {
	db := New()
	db.Insert([]core.Record{
		{TPID: 1, TraceID: 1, TimeNs: 0}, // even a zero timestamp moves forward
		{TPID: 1, TraceID: 2, TimeNs: 7000},
	})
	tbl, _ := db.Table(1)
	db.SetSkew(1, -2500)

	want := map[uint32]uint64{1: 2500, 2: 9500}
	tbl.ScanAligned(func(r core.Record) bool {
		if r.TimeNs != want[r.TraceID] {
			t.Fatalf("ScanAligned trace %d = %d, want %d", r.TraceID, r.TimeNs, want[r.TraceID])
		}
		return true
	})
	r, ok := tbl.FirstByTraceID(1)
	if !ok || r.TimeNs != 2500 {
		t.Fatalf("FirstByTraceID = %d, want 2500", r.TimeNs)
	}
}
