package control

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

func wireBatch(n int) RecordBatch {
	var recs []core.Record
	if n > 0 {
		recs = make([]core.Record, n)
	}
	for i := range recs {
		recs[i] = core.Record{
			TraceID: uint32(i + 1), TPID: uint32(i%3 + 1),
			TimeNs: uint64(1000 * i), Len: 100, CPU: uint32(i % 4),
			Seq: uint64(i), SrcIP: 0x0a000001, DstIP: 0x0a000002,
			SrcPort: 40000, DstPort: 9000, Proto: 17, Dir: 1,
		}
	}
	return RecordBatch{Agent: "agent0", AgentTimeNs: 123456789, Records: recs, RingDrops: 7}
}

// TestBatchFrameRoundTrip proves a batch survives the v4 frame encode and
// decode unchanged, and that the decoder exposes the record section
// verbatim.
func TestBatchFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		want := wireBatch(n)
		want.Seq = uint64(1000 + n)

		bin, err := EncodeBatchFrame(&want)
		if err != nil {
			t.Fatal(err)
		}
		gotBin, err := DecodeBatchFrame(bin)
		if err != nil {
			t.Fatalf("n=%d: decode binary: %v", n, err)
		}
		// Binary decode exposes the frame's record section verbatim so
		// durable sinks can log it without re-encoding; it must match a
		// fresh marshal of the decoded records.
		var wantRaw []byte
		for i := range gotBin.Records {
			wantRaw = gotBin.Records[i].Marshal(wantRaw)
		}
		if !bytes.Equal(gotBin.RawRecords, wantRaw) {
			t.Fatalf("n=%d: RawRecords = %d bytes, want %d matching a re-marshal", n, len(gotBin.RawRecords), len(wantRaw))
		}
		gotBin.RawRecords = nil // logical fields below
		if !reflect.DeepEqual(gotBin, want) {
			t.Fatalf("n=%d: binary round trip = %+v, want %+v", n, gotBin, want)
		}
	}
}

// TestBatchFrameBytesPerRecord verifies the acceptance bound: a batch
// frame carries records at <= 52 bytes/record on the wire (48-byte record
// plus amortized header and length prefix).
func TestBatchFrameBytesPerRecord(t *testing.T) {
	const n = 64
	b := wireBatch(n)
	body, err := EncodeBatchFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	wire := 4 + len(body) // transport length prefix + frame body
	if perRec := float64(wire) / n; perRec > 52 {
		t.Fatalf("binary frame = %.1f bytes/record, want <= 52", perRec)
	}
}

// encodeRetiredBatchFrame builds a batch frame body in a wire version
// the decoder no longer accepts: 1 is the JSON envelope of type "batch",
// 2 the binary layout with a 24-byte header (no Seq), 3 the binary layout
// with a 32-byte header (Seq but no Epoch/Degraded).
func encodeRetiredBatchFrame(t testing.TB, b *RecordBatch, version byte) []byte {
	t.Helper()
	if version == 1 {
		body, err := json.Marshal(struct {
			Type  string       `json:"type"`
			Batch *RecordBatch `json:"batch"`
		}{"batch", b})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	header := map[byte]int{2: 24, 3: 32}[version]
	if header == 0 {
		t.Fatalf("no retired batch wire version %d", version)
	}
	out := make([]byte, header)
	out[0] = batchMagic
	out[1] = version
	le := binary.LittleEndian
	le.PutUint16(out[2:], uint16(len(b.Agent)))
	le.PutUint64(out[4:], uint64(b.AgentTimeNs))
	le.PutUint64(out[12:], b.RingDrops)
	le.PutUint32(out[20:], uint32(len(b.Records)))
	if version == 3 {
		le.PutUint64(out[24:], b.Seq)
	}
	out = append(out, b.Agent...)
	for i := range b.Records {
		out = b.Records[i].Marshal(out)
	}
	return out
}

// TestBatchFrameRejectsRetiredVersions pins the single record wire
// version: v1 JSON, v2 and v3 batch bodies — and future, truncated,
// empty, or non-batch bodies — fail in DecodeBatchFrame. Sent over TCP,
// each retired frame gets an error frame back from the Server and
// nothing reaches the collector.
func TestBatchFrameRejectsRetiredVersions(t *testing.T) {
	b := wireBatch(4)
	b.Seq = 7
	retired := map[string][]byte{
		"v1-json": encodeRetiredBatchFrame(t, &b, 1),
		"v2":      encodeRetiredBatchFrame(t, &b, 2),
		"v3":      encodeRetiredBatchFrame(t, &b, 3),
	}
	v4, err := EncodeBatchFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), v4...)
	future[1] = batchWireV4 + 1
	invalid := map[string][]byte{
		"future":       future,
		"truncated":    v4[:len(v4)-1],
		"header-only":  v4[:batchHeaderSize-1],
		"magic-only":   {batchMagic},
		"empty":        nil,
		"control-json": []byte(`{"type":"control"}`),
	}
	for name, body := range retired {
		invalid[name] = body
	}
	for name, body := range invalid {
		if _, err := DecodeBatchFrame(body); err == nil {
			t.Errorf("%s: DecodeBatchFrame accepted the body", name)
		}
	}

	db := tracedb.New()
	col := NewCollector(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, nil, col)
	defer srv.Close()
	c := &client{addr: srv.Addr().String()}
	defer c.Close()
	for name, body := range retired {
		_, err := c.roundTrip(body)
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Errorf("%s over TCP: got %v, want an error frame", name, err)
		}
	}
	if batches, records, _ := col.Stats(); batches != 0 || records != 0 {
		t.Fatalf("collector ingested %d batches (%d records) from retired frames", batches, records)
	}
}

// TestBatchFrameV4CarriesEpoch pins the v4 header fields: the encoder
// emits v4 and Seq/Epoch/Degraded round-trip.
func TestBatchFrameV4CarriesEpoch(t *testing.T) {
	want := wireBatch(4)
	want.Seq, want.Epoch, want.Degraded = 9, 3, 2
	body, err := EncodeBatchFrame(&want)
	if err != nil {
		t.Fatal(err)
	}
	if body[1] != batchWireV4 {
		t.Fatalf("encoder emitted wire version %d, want %d", body[1], batchWireV4)
	}
	got, err := DecodeBatchFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	got.RawRecords = nil // decoder-only alias, absent from the literal
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v4 round trip = %+v, want %+v", got, want)
	}
}

// TestCollectorAsyncIngest checks the bounded-queue path: batches land in
// the DB after StopIngest drains, and overflow is counted, not blocking.
func TestCollectorAsyncIngest(t *testing.T) {
	db := tracedb.New()
	col := NewCollector(db)
	col.StartIngest(4, 256)
	var wg sync.WaitGroup
	const senders, perSender = 8, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				col.HandleBatch(RecordBatch{
					Agent:       "a",
					AgentTimeNs: int64(i),
					Records:     []core.Record{{TPID: uint32(s%4 + 1), TraceID: uint32(s*perSender + i + 1)}},
				})
			}
		}(s)
	}
	wg.Wait()
	col.StopIngest()
	batches, records, _ := col.Stats()
	_, dropped := col.IngestStats()
	if batches+dropped != senders*perSender {
		t.Fatalf("batches %d + dropped %d != sent %d", batches, dropped, senders*perSender)
	}
	if records != batches {
		t.Fatalf("records = %d, want %d (one per ingested batch)", records, batches)
	}
	// After StopIngest, HandleBatch is synchronous again.
	col.HandleBatch(RecordBatch{Agent: "a", Records: []core.Record{{TPID: 9, TraceID: 1}}})
	if tbl, ok := db.Table(9); !ok || tbl.Len() != 1 {
		t.Fatal("synchronous ingest after StopIngest failed")
	}
}

// TestCollectorIngestBackpressure jams the single worker on a slow store
// and overflows the depth-1 queue: drops must be counted, never blocking
// the transport goroutine. With the worker holding at most one batch and
// the queue one more, three sends guarantee at least one drop without any
// timing assumption.
func TestCollectorIngestBackpressure(t *testing.T) {
	blocker := make(chan struct{})
	db := tracedb.New()
	col := NewCollector(db)
	inner := col.ingestFn
	col.ingestFn = func(b RecordBatch) {
		<-blocker // slow store
		inner(b)
	}
	col.StartIngest(1, 1)
	const sent = 3
	for i := 0; i < sent; i++ {
		col.HandleBatch(RecordBatch{Agent: "a", AgentTimeNs: int64(i)})
	}
	_, dropped := col.IngestStats()
	if dropped == 0 {
		t.Fatal("full queue dropped nothing")
	}
	close(blocker)
	col.StopIngest()
	batches, _, _ := col.Stats()
	_, dropped = col.IngestStats()
	if batches+dropped != sent {
		t.Fatalf("batches %d + dropped %d != sent %d", batches, dropped, sent)
	}
}

// TestConcurrentBatchesRace inserts batches from many goroutines over TCP
// and in-process simultaneously while analyses scan the tables — the
// -race regression for the record path.
func TestConcurrentBatchesRace(t *testing.T) {
	db := tracedb.New()
	col := NewCollector(db)
	col.StartIngest(4, 1024)
	defer col.StopIngest()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, nil, col)
	defer srv.Close()

	var senders sync.WaitGroup
	// TCP writers.
	for w := 0; w < 2; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			sink := NewTCPSink(srv.Addr().String())
			defer sink.Close()
			for i := 0; i < 50; i++ {
				if err := sink.HandleBatch(wireBatch(8)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// In-process writers.
	for w := 0; w < 2; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < 50; i++ {
				col.HandleBatch(wireBatch(8))
			}
		}()
	}
	// Reader: scan and query while inserts run.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range db.Tables() {
				tbl, _ := db.Table(id)
				tbl.Scan(func(core.Record) bool { return true })
				tbl.Len()
				tbl.TraceIDs()
			}
		}
	}()
	senders.Wait()
	close(stop)
	<-readerDone
}
