package tracedb

import "sort"

// agentLedger is the collector's per-agent delivery bookkeeping: the
// heartbeat timestamp plus the batch-sequence state that turns the
// at-least-once transport into exactly-once ingest.
type agentLedger struct {
	lastSeenNs int64
	// hwm is the contiguous high-water mark: every sequenced batch with
	// Seq <= hwm has been ingested.
	hwm uint64
	// maxSeq is the highest sequence number ever observed.
	maxSeq uint64
	// pending holds ingested seqs above hwm (async ingest workers can
	// process an agent's batches out of order).
	pending map[uint64]struct{}
	dups    uint64

	// epoch is the newest registration lease observed for this agent.
	// Sequence numbers restart from 1 with each epoch (a restarted agent
	// is a fresh process), so on an epoch advance the old epoch's seq
	// state is snapshotted aside and the counters reset.
	epoch uint64
	// prevMaxSeq/prevHwm/prevPending freeze the previous epoch's ingest
	// state at the fence point: a stale-epoch batch is checked against
	// them so a zombie re-shipping an already-ingested batch is not
	// double-counted as fenced payload.
	prevMaxSeq  uint64
	prevHwm     uint64
	prevPending map[uint64]struct{}
	// prevFenced records previous-epoch seqs already counted into
	// fencedRecords, so zombie retries of the same batch count once.
	prevFenced map[uint64]struct{}
	// missingPrior accumulates sequence gaps from closed epochs; a gap
	// batch that later surfaces fenced is moved from missing to fenced.
	missingPrior uint64
	// fencedBatches counts every stale-epoch sequenced arrival;
	// fencedRecords counts the record payload of first-time fenced
	// batches that were never ingested (exact confirmed-fenced loss).
	fencedBatches uint64
	fencedRecords uint64
	// degraded is the agent's last self-reported degradation level.
	degraded uint8
}

// markSeq records a nonzero batch seq for the current epoch and reports
// whether it is fresh. Callers hold db.hbMu.
func (l *agentLedger) markSeq(seq uint64) bool {
	if seq <= l.hwm {
		l.dups++
		return false
	}
	if _, seen := l.pending[seq]; seen {
		l.dups++
		return false
	}
	l.pending[seq] = struct{}{}
	if seq > l.maxSeq {
		l.maxSeq = seq
	}
	for {
		if _, ok := l.pending[l.hwm+1]; !ok {
			break
		}
		delete(l.pending, l.hwm+1)
		l.hwm++
	}
	return true
}

// AgentLedger is a snapshot of one agent's delivery ledger.
type AgentLedger struct {
	// LastSeenNs is the latest heartbeat timestamp on the agent's clock.
	LastSeenNs int64
	// HighWaterSeq is the contiguous ingest prefix: every batch sequence
	// number <= HighWaterSeq has been ingested exactly once.
	HighWaterSeq uint64
	// MaxSeq is the highest batch sequence number observed so far.
	MaxSeq uint64
	// DupBatches counts batches dropped because their sequence number had
	// already been ingested (transport retries after a lost reply).
	DupBatches uint64
	// PendingBatches counts seqs ingested above the high-water mark —
	// reordering by concurrent ingest workers, usually transient.
	PendingBatches int
	// MissingBatches counts sequence-number gaps: batches the agent
	// stamped but the collector never ingested. While the agent still
	// spools them this is in-flight retry backlog; once the agent evicts
	// them it is confirmed loss. Gaps from closed epochs are included;
	// a gap batch that later arrives fenced moves to FencedRecords.
	MissingBatches uint64
	// Epoch is the newest registration lease observed for the agent.
	// Zero means the agent never presented a lease (standalone
	// agents); such agents are never fenced.
	Epoch uint64
	// FencedBatches counts stale-epoch sequenced batches rejected by
	// the epoch fence (every arrival, including zombie retries);
	// FencedRecords counts the payload of first-time fenced batches
	// that were never ingested — confirmed records lost to fencing.
	FencedBatches uint64
	FencedRecords uint64
	// Degraded is the agent's last self-reported degradation level:
	// 0 full capture, 1 stretched flush, 2 ring sampling.
	Degraded uint8
}

// ledgerEntry returns (creating if needed) the ledger for an agent.
// Callers must hold db.hbMu.
func (db *DB) ledgerEntry(agent string) *agentLedger {
	l, ok := db.ledger[agent]
	if !ok {
		l = &agentLedger{pending: make(map[uint64]struct{})}
		db.ledger[agent] = l
	}
	return l
}

// Heartbeat records that an agent reported in at time nowNs. The collector
// doubles as the health monitor (paper Section III-C: "it also acts as a
// heartbeat monitor"). The ledger keeps the maximum: with concurrent
// ingest workers (or an agent re-shipping spooled batches stamped at their
// original drain time) batches arrive out of order, and an older timestamp
// must not regress the last-seen time and falsely kill a live agent.
func (db *DB) Heartbeat(agent string, nowNs int64) {
	db.hbMu.Lock()
	defer db.hbMu.Unlock()
	l := db.ledgerEntry(agent)
	if nowNs > l.lastSeenNs {
		l.lastSeenNs = nowNs
	}
}

// BatchStatus classifies a batch presented to AdmitBatch.
type BatchStatus int

const (
	// BatchFresh: first sight of this (epoch, seq) — insert the records.
	BatchFresh BatchStatus = iota
	// BatchDuplicate: the seq was already ingested in the current epoch
	// (transport retry) — drop the payload, the heartbeat still counted.
	BatchDuplicate
	// BatchFenced: the batch carries a stale epoch (a zombie pre-restart
	// process) — drop the payload and do not advance liveness; the fence
	// keeps exactly-once accounting owned by the live incarnation.
	BatchFenced
)

// AdmitBatch is the epoch-aware front door to the ledger: one call
// classifies a batch (fresh / duplicate / fenced), advances the epoch on
// a newer lease, updates the heartbeat for live-epoch traffic, and keeps
// the fenced-loss counters exact. records is the batch's payload size;
// nowNs its heartbeat timestamp; degraded the agent's self-reported
// degradation level.
//
// Epoch rules: epoch 0 means unleased and is compared equal to itself
// only — an unleased agent is never fenced. A batch with a newer epoch
// than the ledger's closes the old epoch: its outstanding sequence gap is
// folded into MissingBatches and its ingest state is frozen so stale
// stragglers dedup correctly. A batch with an older epoch is fenced;
// fenced payload counts once per seq (zombie retries don't inflate it),
// and a fenced seq that was part of the closed epoch's gap moves from
// missing to fenced. Fenced-payload exactness is guaranteed for the
// immediately previous epoch (one live restart); older zombies are still
// fenced but counted conservatively.
func (db *DB) AdmitBatch(agent string, epoch, seq uint64, records int, nowNs int64, degraded uint8) BatchStatus {
	db.hbMu.Lock()
	defer db.hbMu.Unlock()
	return db.ledgerEntry(agent).admit(epoch, seq, records, nowNs, degraded)
}

// admit implements AdmitBatch's classification on one agent's ledger.
// It is shared by the record path (DB) and the aggregate path (AggStore),
// which run separate sequence spaces over identical epoch/seq semantics.
// Callers hold the mutex guarding l.
func (l *agentLedger) admit(epoch, seq uint64, records int, nowNs int64, degraded uint8) BatchStatus {
	if epoch > l.epoch {
		l.missingPrior += l.maxSeq - l.hwm - uint64(len(l.pending))
		l.prevMaxSeq = l.maxSeq
		l.prevHwm = l.hwm
		l.prevPending = l.pending
		l.prevFenced = make(map[uint64]struct{})
		l.hwm, l.maxSeq = 0, 0
		l.pending = make(map[uint64]struct{})
		l.epoch = epoch
	}
	if epoch != 0 && epoch < l.epoch {
		if seq == 0 {
			// Stale bare heartbeat: a zombie must not keep the agent
			// looking alive or perturb any counter.
			return BatchFenced
		}
		l.fencedBatches++
		ingested := seq <= l.prevHwm
		if !ingested && l.prevPending != nil {
			_, ingested = l.prevPending[seq]
		}
		if !ingested {
			if l.prevFenced == nil {
				l.prevFenced = make(map[uint64]struct{})
			}
			if _, counted := l.prevFenced[seq]; !counted {
				l.prevFenced[seq] = struct{}{}
				l.fencedRecords += uint64(records)
				if seq <= l.prevMaxSeq && l.missingPrior > 0 {
					l.missingPrior--
				}
			}
		}
		return BatchFenced
	}
	if nowNs > l.lastSeenNs {
		l.lastSeenNs = nowNs
	}
	l.degraded = degraded
	if seq == 0 {
		return BatchFresh
	}
	if !l.markSeq(seq) {
		return BatchDuplicate
	}
	return BatchFresh
}

// Ledger returns a snapshot of one agent's delivery ledger.
func (db *DB) Ledger(agent string) (AgentLedger, bool) {
	db.hbMu.Lock()
	defer db.hbMu.Unlock()
	l, ok := db.ledger[agent]
	if !ok {
		return AgentLedger{}, false
	}
	return l.snapshot(), true
}

// snapshot exports the ledger's public view. Callers hold the mutex
// guarding l.
func (l *agentLedger) snapshot() AgentLedger {
	return AgentLedger{
		LastSeenNs:     l.lastSeenNs,
		HighWaterSeq:   l.hwm,
		MaxSeq:         l.maxSeq,
		DupBatches:     l.dups,
		PendingBatches: len(l.pending),
		MissingBatches: l.missingPrior + l.maxSeq - l.hwm - uint64(len(l.pending)),
		Epoch:          l.epoch,
		FencedBatches:  l.fencedBatches,
		FencedRecords:  l.fencedRecords,
		Degraded:       l.degraded,
	}
}

// DeadAgents lists agents not heard from within timeout of nowNs.
func (db *DB) DeadAgents(nowNs, timeoutNs int64) []string {
	db.hbMu.Lock()
	defer db.hbMu.Unlock()
	var out []string
	for agent, l := range db.ledger {
		if nowNs-l.lastSeenNs > timeoutNs {
			out = append(out, agent)
		}
	}
	sort.Strings(out)
	return out
}

// Agents lists all agents that ever heartbeated.
func (db *DB) Agents() []string {
	db.hbMu.Lock()
	defer db.hbMu.Unlock()
	out := make([]string, 0, len(db.ledger))
	for a := range db.ledger {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
