package tracedb

import "testing"

// admit is a test shorthand: payload timestamps and degradation default to
// the interesting-case values each test overrides explicitly.
func admit(db *DB, agent string, epoch, seq uint64, records int, nowNs int64) BatchStatus {
	return db.AdmitBatch(agent, epoch, seq, records, nowNs, 0)
}

func ledger(t *testing.T, db *DB, agent string) AgentLedger {
	t.Helper()
	l, ok := db.Ledger(agent)
	if !ok {
		t.Fatalf("no ledger for %q", agent)
	}
	return l
}

// TestAdmitBatchEpochAdvanceFoldsGap: closing an epoch folds its
// outstanding sequence gap into MissingBatches, and the new epoch starts
// with fresh sequence state.
func TestAdmitBatchEpochAdvanceFoldsGap(t *testing.T) {
	db := New()
	if got := admit(db, "a", 1, 1, 5, 100); got != BatchFresh {
		t.Fatalf("epoch1 seq1: got %v, want BatchFresh", got)
	}
	// Seq 4 parks pending above the hwm; seqs 2 and 3 are the gap.
	if got := admit(db, "a", 1, 4, 5, 110); got != BatchFresh {
		t.Fatalf("epoch1 seq4: got %v, want BatchFresh", got)
	}
	l := ledger(t, db, "a")
	if l.MissingBatches != 2 || l.HighWaterSeq != 1 || l.PendingBatches != 1 {
		t.Fatalf("pre-advance ledger: missing=%d hwm=%d pending=%d, want 2/1/1",
			l.MissingBatches, l.HighWaterSeq, l.PendingBatches)
	}
	// The restarted incarnation presents epoch 2: the old gap is folded,
	// the new epoch's seq space restarts at 1 without a duplicate verdict.
	if got := admit(db, "a", 2, 1, 5, 120); got != BatchFresh {
		t.Fatalf("epoch2 seq1: got %v, want BatchFresh", got)
	}
	l = ledger(t, db, "a")
	if l.Epoch != 2 {
		t.Fatalf("epoch: got %d, want 2", l.Epoch)
	}
	if l.MissingBatches != 2 {
		t.Fatalf("missing after advance: got %d, want 2 (folded gap)", l.MissingBatches)
	}
	if l.HighWaterSeq != 1 || l.MaxSeq != 1 || l.PendingBatches != 0 {
		t.Fatalf("new-epoch seq state: hwm=%d max=%d pending=%d, want 1/1/0",
			l.HighWaterSeq, l.MaxSeq, l.PendingBatches)
	}
}

// TestAdmitBatchFencesZombie: stale-epoch batches are fenced every time
// they arrive, but their payload is counted once per seq, only for seqs
// the closed epoch never ingested — and a fenced gap seq moves from
// missing to fenced rather than double-counting the loss.
func TestAdmitBatchFencesZombie(t *testing.T) {
	db := New()
	admit(db, "a", 1, 1, 5, 100) // ingested below hwm
	admit(db, "a", 1, 4, 5, 110) // ingested, parked pending
	admit(db, "a", 2, 1, 5, 120) // lease advance: gap {2,3} folded
	// Zombie ships gap seq 2: fenced, payload counted, missing 2 -> 1.
	if got := admit(db, "a", 1, 2, 7, 90); got != BatchFenced {
		t.Fatalf("zombie seq2: got %v, want BatchFenced", got)
	}
	l := ledger(t, db, "a")
	if l.FencedBatches != 1 || l.FencedRecords != 7 || l.MissingBatches != 1 {
		t.Fatalf("after zombie seq2: fencedBatches=%d fencedRecords=%d missing=%d, want 1/7/1",
			l.FencedBatches, l.FencedRecords, l.MissingBatches)
	}
	// Zombie retries the same seq: fenced again, payload NOT re-counted.
	if got := admit(db, "a", 1, 2, 7, 91); got != BatchFenced {
		t.Fatalf("zombie retry seq2: got %v, want BatchFenced", got)
	}
	l = ledger(t, db, "a")
	if l.FencedBatches != 2 || l.FencedRecords != 7 || l.MissingBatches != 1 {
		t.Fatalf("after zombie retry: fencedBatches=%d fencedRecords=%d missing=%d, want 2/7/1",
			l.FencedBatches, l.FencedRecords, l.MissingBatches)
	}
	// Zombie re-ships seqs the old epoch already ingested (one below the
	// frozen hwm, one from the frozen pending set): fenced, no payload
	// counted — those records made it into the store the first time.
	if got := admit(db, "a", 1, 1, 5, 92); got != BatchFenced {
		t.Fatalf("zombie ingested seq1: got %v, want BatchFenced", got)
	}
	if got := admit(db, "a", 1, 4, 5, 93); got != BatchFenced {
		t.Fatalf("zombie pending seq4: got %v, want BatchFenced", got)
	}
	l = ledger(t, db, "a")
	if l.FencedBatches != 4 || l.FencedRecords != 7 {
		t.Fatalf("after ingested re-ships: fencedBatches=%d fencedRecords=%d, want 4/7",
			l.FencedBatches, l.FencedRecords)
	}
}

// TestAdmitBatchStaleHeartbeatIgnored: a zombie's bare heartbeat must not
// keep the dead incarnation looking alive or disturb any counter.
func TestAdmitBatchStaleHeartbeatIgnored(t *testing.T) {
	db := New()
	admit(db, "a", 1, 1, 5, 100)
	admit(db, "a", 2, 1, 5, 120)
	if got := db.AdmitBatch("a", 1, 0, 0, 999, 2); got != BatchFenced {
		t.Fatalf("stale heartbeat: got %v, want BatchFenced", got)
	}
	l := ledger(t, db, "a")
	if l.LastSeenNs != 120 {
		t.Fatalf("stale heartbeat advanced LastSeenNs to %d, want 120", l.LastSeenNs)
	}
	if l.Degraded != 0 {
		t.Fatalf("stale heartbeat set Degraded=%d, want 0", l.Degraded)
	}
	if l.FencedRecords != 0 {
		t.Fatalf("stale heartbeat counted %d fenced records, want 0", l.FencedRecords)
	}
	// A live-epoch heartbeat does advance liveness and degradation.
	if got := db.AdmitBatch("a", 2, 0, 0, 130, 1); got != BatchFresh {
		t.Fatalf("live heartbeat: got %v, want BatchFresh", got)
	}
	l = ledger(t, db, "a")
	if l.LastSeenNs != 130 || l.Degraded != 1 {
		t.Fatalf("live heartbeat: lastSeen=%d degraded=%d, want 130/1", l.LastSeenNs, l.Degraded)
	}
}

// TestAdmitBatchEpochZeroNeverFenced: epoch 0 means unleased (standalone
// agents); such traffic rides the normal dedup path even after a leased
// incarnation has been observed.
func TestAdmitBatchEpochZeroNeverFenced(t *testing.T) {
	db := New()
	if got := admit(db, "a", 0, 1, 5, 100); got != BatchFresh {
		t.Fatalf("unleased seq1: got %v, want BatchFresh", got)
	}
	if got := admit(db, "a", 0, 1, 5, 101); got != BatchDuplicate {
		t.Fatalf("unleased retry: got %v, want BatchDuplicate", got)
	}
	// A lease appears...
	if got := admit(db, "a", 3, 1, 5, 110); got != BatchFresh {
		t.Fatalf("leased seq1: got %v, want BatchFresh", got)
	}
	// ...and unleased traffic is still never fenced: it dedups against
	// the live epoch's sequence space.
	if got := admit(db, "a", 0, 2, 5, 120); got != BatchFresh {
		t.Fatalf("unleased seq2 after lease: got %v, want BatchFresh", got)
	}
	l := ledger(t, db, "a")
	if l.FencedBatches != 0 || l.FencedRecords != 0 {
		t.Fatalf("unleased traffic was fenced: batches=%d records=%d", l.FencedBatches, l.FencedRecords)
	}
	if l.HighWaterSeq != 2 {
		t.Fatalf("hwm: got %d, want 2", l.HighWaterSeq)
	}
}

// TestAdmitBatchDuplicateInLiveEpoch: plain transport retries inside one
// epoch still classify as duplicates, not fenced.
func TestAdmitBatchDuplicateInLiveEpoch(t *testing.T) {
	db := New()
	admit(db, "a", 1, 1, 5, 100)
	if got := admit(db, "a", 1, 1, 5, 101); got != BatchDuplicate {
		t.Fatalf("retry: got %v, want BatchDuplicate", got)
	}
	l := ledger(t, db, "a")
	if l.DupBatches != 1 || l.FencedBatches != 0 {
		t.Fatalf("dup=%d fenced=%d, want 1/0", l.DupBatches, l.FencedBatches)
	}
}
