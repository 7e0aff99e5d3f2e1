package tracedb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"vnettracer/internal/core"
)

// randomBatches inserts n records for tpid in batches of 1..maxRun, with
// trace IDs drawn from a small range so most IDs repeat, sometimes within
// one batch and often across seal boundaries. It returns the records in
// insertion order.
func randomBatches(db *DB, rng *rand.Rand, tpid uint32, n, maxRun, ids int) []core.Record {
	var all []core.Record
	ts := uint64(1_000_000)
	for done := 0; done < n; {
		k := 1 + rng.Intn(maxRun)
		if k > n-done {
			k = n - done
		}
		batch := make([]core.Record, k)
		for i := range batch {
			ts += uint64(rng.Intn(5000))
			batch[i] = core.Record{
				TPID:    tpid,
				TraceID: uint32(1 + rng.Intn(ids)),
				TimeNs:  ts,
				Len:     uint32(60 + rng.Intn(1400)),
				CPU:     uint32(rng.Intn(4)),
				Seq:     uint64(done + i),
				SrcPort: uint16(rng.Intn(3)),
				DstPort: 9000,
				Proto:   17,
			}
		}
		db.Insert(batch)
		all = append(all, batch...)
		done += k
	}
	return all
}

// TestTraceIDLookupMatchesScan checks ByTraceID and FirstByTraceID
// against a brute-force pass over Scan and ScanAligned, for head-only,
// sealed-only (resident and spilled) and mixed tables with duplicate
// trace IDs and a nonzero clock skew.
func TestTraceIDLookupMatchesScan(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		spill    bool
		sealAll  bool
		wantHead bool
		wantExt  bool
	}{
		{name: "head-only", cfg: Config{SegmentBytes: 1 << 30}, wantHead: true},
		{name: "sealed-only", cfg: Config{SegmentBytes: 37 * core.RecordSize}, sealAll: true, wantExt: true},
		{name: "sealed-only-spilled", cfg: Config{SegmentBytes: 37 * core.RecordSize}, spill: true, sealAll: true, wantExt: true},
		{name: "mixed", cfg: Config{SegmentBytes: 53 * core.RecordSize}, wantHead: true, wantExt: true},
		{name: "mixed-spilled", cfg: Config{SegmentBytes: 53 * core.RecordSize}, spill: true, wantHead: true, wantExt: true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := tc.cfg
				if tc.spill {
					cfg.DataDir = t.TempDir()
				}
				db := NewWith(cfg)
				n := 400 + rng.Intn(400)
				randomBatches(db, rng, 1, n, 20, 90)
				tbl, _ := db.Table(1)
				if _, head, _ := tbl.snapshot(); !tc.sealAll && len(head) == 0 {
					db.Insert([]core.Record{{TPID: 1, TraceID: 1, TimeNs: 1}}) // keep a head
				}
				if tc.sealAll {
					db.SealAll()
				}
				db.SetSkew(1, 777_000)
				st := tbl.Storage()
				if (st.HeadRecords > 0) != tc.wantHead || (st.Extents > 0) != tc.wantExt {
					t.Fatalf("layout head=%d extents=%d, want head %v extents %v",
						st.HeadRecords, st.Extents, tc.wantHead, tc.wantExt)
				}

				raw := map[uint32][]core.Record{}
				firstAligned := map[uint32]core.Record{}
				tbl.Scan(func(r core.Record) bool { raw[r.TraceID] = append(raw[r.TraceID], r); return true })
				tbl.ScanAligned(func(r core.Record) bool {
					if _, ok := firstAligned[r.TraceID]; !ok {
						firstAligned[r.TraceID] = r
					}
					return true
				})
				for id := uint32(0); id <= 92; id++ { // 0 and 91..92 never occur
					if got := tbl.ByTraceID(id); !reflect.DeepEqual(got, raw[id]) {
						t.Fatalf("ByTraceID(%d) = %d records, want %d (%v vs %v)", id, len(got), len(raw[id]), got, raw[id])
					}
					got, ok := tbl.FirstByTraceID(id)
					want, wantOK := firstAligned[id]
					if ok != wantOK || got != want {
						t.Fatalf("FirstByTraceID(%d) = %+v,%v, want %+v,%v", id, got, ok, want, wantOK)
					}
				}
				if st := tbl.Storage(); st.ReadErrors != 0 {
					t.Fatalf("read errors = %d", st.ReadErrors)
				}
			})
		}
	}
}

// TestSealedBlobsMatchFreshEncoding checks that extents sealed through
// the table's reused encode buffer hold exactly the bytes a standalone
// encode of the inserted records produces, resident and spilled. Every
// extent is checked after the last seal, so a resident blob aliasing the
// buffer a later seal overwrote would show.
func TestSealedBlobsMatchFreshEncoding(t *testing.T) {
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			cfg := Config{SegmentBytes: 41 * core.RecordSize}
			if spill {
				cfg.DataDir = t.TempDir()
			}
			db := NewWith(cfg)
			all := randomBatches(db, rand.New(rand.NewSource(9)), 3, 600, 25, 1000)
			db.SealAll()
			tbl, _ := db.Table(3)
			exts, _, _ := tbl.snapshot()
			if len(exts) < 5 {
				t.Fatalf("only %d extents sealed", len(exts))
			}
			for i, e := range exts {
				want := appendExtentBlob(nil, 3, all[:e.Count()])
				all = all[e.Count():]
				got := e.blob
				if spill {
					b, err := os.ReadFile(e.Path())
					if err != nil {
						t.Fatal(err)
					}
					got = b
					if e.blob != nil {
						t.Fatalf("extent %d spilled but keeps its blob resident", i)
					}
				}
				if !bytes.Equal(got, want) || e.StoredBytes() != len(want) {
					t.Fatalf("extent %d: %d stored bytes differ from a fresh %d-byte encode", i, e.StoredBytes(), len(want))
				}
			}
			if len(all) != 0 {
				t.Fatalf("%d inserted records in no extent", len(all))
			}
		})
	}
}

// BenchmarkTableAppend measures inserting 90-record runs (one agent
// flush at the demo rate) into one table with the default segment size
// and no data directory, seals included.
func BenchmarkTableAppend(b *testing.B) {
	const run = 90
	batch := make([]core.Record, run)
	for i := range batch {
		batch[i] = core.Record{TPID: 1, TraceID: uint32(i * 7919), TimeNs: uint64(i) * 1000, Len: 100, DstPort: 9000, Proto: 17}
	}
	db := New()
	b.ReportAllocs()
	b.SetBytes(run * core.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range batch {
			batch[k].TimeNs += run * 1000
			batch[k].TraceID += run
		}
		db.Insert(batch)
	}
}
