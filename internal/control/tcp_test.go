package control

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"vnettracer/internal/core"
)

// Framing tests for the TCP transport: every frame is one buffered read
// on the server, frame bodies outlive the read buffer, replies are one
// binary frame that decodes or fails — never a zero-value success.

// framed puts body behind its length prefix, ready to write to a
// connection or hand to client.roundTrip.
func framed(body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// keepSink keeps every batch it is handed and acks with the batch's Seq
// as QueueDepth, so replies can be matched to requests.
type keepSink struct {
	mu      sync.Mutex
	batches []RecordBatch
}

func (k *keepSink) HandleBatch(b RecordBatch) error {
	_, err := k.HandleBatchAck(b)
	return err
}

func (k *keepSink) HandleBatchAck(b RecordBatch) (BatchAck, error) {
	k.mu.Lock()
	k.batches = append(k.batches, b)
	k.mu.Unlock()
	return BatchAck{QueueDepth: int(b.Seq), QueueCap: 1000}, nil
}

func (k *keepSink) kept() []RecordBatch {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]RecordBatch(nil), k.batches...)
}

// randomBatch builds a batch of n records whose every field varies, so a
// body overwritten by a later frame cannot compare equal by accident.
func randomBatch(rng *rand.Rand, seq uint64, n int) RecordBatch {
	b := RecordBatch{Agent: "agent-0", AgentTimeNs: rng.Int63(), Seq: seq}
	for i := 0; i < n; i++ {
		b.Records = append(b.Records, core.Record{
			TraceID: rng.Uint32(), TPID: rng.Uint32(), TimeNs: rng.Uint64(),
			Len: rng.Uint32(), CPU: rng.Uint32(), Seq: rng.Uint64(),
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: uint8(rng.Uint32()), Dir: uint8(rng.Uint32()),
		})
	}
	return b
}

func marshalRecords(recs []core.Record) []byte {
	var out []byte
	for i := range recs {
		out = recs[i].Marshal(out)
	}
	return out
}

// TestServerBatchOutlivesCall pins the retention contract: the server
// reads every frame on a connection through one buffered reader, yet a
// sink may keep the batches it is handed. After many more frames on the
// same connection, every kept batch must still hold exactly what was
// sent — its Records and the RawRecords alias of the frame body.
func TestServerBatchOutlivesCall(t *testing.T) {
	keep := &keepSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, nil, keep)
	defer srv.Close()
	sink := NewTCPSink(srv.Addr().String())
	defer sink.Close()

	rng := rand.New(rand.NewSource(7))
	var sent []RecordBatch
	for seq := uint64(1); seq <= 300; seq++ {
		b := randomBatch(rng, seq, 1+rng.Intn(90))
		ack, err := sink.HandleBatchAck(b)
		if err != nil {
			t.Fatal(err)
		}
		if ack.QueueDepth != int(seq) {
			t.Fatalf("batch %d acked as %d", seq, ack.QueueDepth)
		}
		sent = append(sent, b)
	}
	kept := keep.kept()
	if len(kept) != len(sent) {
		t.Fatalf("sink kept %d batches, want %d", len(kept), len(sent))
	}
	for i := range sent {
		want, got := sent[i], kept[i]
		if got.Seq != want.Seq || got.AgentTimeNs != want.AgentTimeNs || len(got.Records) != len(want.Records) {
			t.Fatalf("kept batch %d header = seq %d time %d n %d, want seq %d time %d n %d",
				i, got.Seq, got.AgentTimeNs, len(got.Records), want.Seq, want.AgentTimeNs, len(want.Records))
		}
		for j := range want.Records {
			if got.Records[j] != want.Records[j] {
				t.Fatalf("kept batch %d record %d = %+v, want %+v", i, j, got.Records[j], want.Records[j])
			}
		}
		if !bytes.Equal(got.RawRecords, marshalRecords(want.Records)) {
			t.Fatalf("kept batch %d RawRecords changed after later frames", i)
		}
	}
}

// streamFrames is a batch, a control request the collector-only server
// refuses, and a second batch, framed back to back.
func streamFrames(t *testing.T) (stream []byte, batches []RecordBatch) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	batches = []RecordBatch{randomBatch(rng, 1, 5), randomBatch(rng, 2, 90)}
	ctl, err := json.Marshal(envelope{Type: frameControl, Control: &ControlPackage{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range [][]byte{nil, ctl, nil} {
		if body == nil {
			if body, err = EncodeBatchFrame(&batches[i/2]); err != nil {
				t.Fatal(err)
			}
		}
		stream = append(stream, framed(body)...)
	}
	return stream, batches
}

// TestFramingSplitAndCoalescedWrites sends the same three frames once a
// byte per Write and once all in a single Write. Either way the server
// must see every frame intact and answer each, in order.
func TestFramingSplitAndCoalescedWrites(t *testing.T) {
	stream, batches := streamFrames(t)
	for _, mode := range []string{"byte-at-a-time", "one-write"} {
		t.Run(mode, func(t *testing.T) {
			keep := &keepSink{}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := Serve(ln, nil, keep)
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if mode == "one-write" {
				_, err = conn.Write(stream)
			} else {
				for i := 0; i < len(stream) && err == nil; i++ {
					_, err = conn.Write(stream[i : i+1])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			for i, want := range []int{1, -1, 2} {
				body, err := readBody(r)
				if err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				ack, err := decodeReply(body)
				var remote *RemoteError
				switch {
				case want < 0 && !errors.As(err, &remote):
					t.Fatalf("reply %d = %v, want the control request refused", i, err)
				case want >= 0 && (err != nil || ack.QueueDepth != want):
					t.Fatalf("reply %d = %+v, %v; want ack for batch %d", i, ack, err, want)
				}
			}
			kept := keep.kept()
			if len(kept) != len(batches) {
				t.Fatalf("sink got %d batches, want %d", len(kept), len(batches))
			}
			for i := range batches {
				if !bytes.Equal(kept[i].RawRecords, marshalRecords(batches[i].Records)) {
					t.Fatalf("batch %d arrived corrupted", i)
				}
			}
		})
	}
}

// TestOversizedBatchRefusedBeforeSend: a batch whose frame would exceed
// maxFrameBytes fails on the client without a connection being made.
func TestOversizedBatchRefusedBeforeSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conn.Close()
		}
	}()
	sink := NewTCPSink(ln.Addr().String())
	defer sink.Close()
	huge := RecordBatch{Agent: "agent-0", Records: make([]core.Record, maxFrameBytes/core.RecordSize+1)}
	if _, err := sink.HandleBatchAck(huge); err == nil {
		t.Fatal("oversized batch was accepted")
	}
	ln.Close()
	<-done
	if n := accepted.Load(); n != 0 {
		t.Fatalf("client opened %d connections for an oversized frame", n)
	}
}

// TestDecodeReplyRejectsMalformed: every truncation of a valid reply, an
// unknown magic or status, and an ok reply with trailing bytes fail to
// decode — none of them reads as an ok reply.
func TestDecodeReplyRejectsMalformed(t *testing.T) {
	ok := appendReply(nil, BatchAck{QueueDepth: 3, QueueCap: 8}, nil)
	if ack, err := decodeReply(ok); err != nil || ack != (BatchAck{QueueDepth: 3, QueueCap: 8}) {
		t.Fatalf("ok reply = %+v, %v", ack, err)
	}
	refused := appendReply(nil, BatchAck{}, errors.New("spec rejected"))
	var remote *RemoteError
	if _, err := decodeReply(refused); !errors.As(err, &remote) || remote.Msg != "spec rejected" {
		t.Fatalf("error reply = %v, want RemoteError(spec rejected)", err)
	}
	bad := map[string][]byte{
		"ok-trailing":    append(append([]byte(nil), ok...), 'x'),
		"batch-magic":    append([]byte{batchMagic}, ok[1:]...),
		"json":           []byte(`{"type":"ok"}`),
		"unknown-status": append([]byte{replyMagic, 7}, ok[2:]...),
	}
	for i := 0; i < len(ok); i++ {
		bad["ok-truncated-"+string(rune('0'+i))] = ok[:i]
	}
	for name, body := range bad {
		if _, err := decodeReply(body); err == nil || errors.As(err, &remote) {
			t.Errorf("%s: decodeReply = %v, want a malformed-reply error", name, err)
		}
	}
}

// TestReplyFromDeadConnectionNeverRead: the first two connections answer
// a batch with a reply of unknown magic followed by a well-formed reply
// in the same write. The bad reply is a transport failure, so the first
// call fails after its one retry — it must not take the well-formed
// reply still buffered from the first connection as its answer. The
// second call must dial again and take its answer from the live third
// connection, not from bytes left on the second.
func TestReplyFromDeadConnectionNeverRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			bad := conns.Add(1) <= 2
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, err := readBody(r); err != nil {
						return
					}
					out := framed(appendReply(nil, BatchAck{QueueDepth: 7, QueueCap: 8}, nil))
					if bad {
						out = append(framed([]byte{batchMagic, replyOK, 0, 0, 0, 0, 0, 0, 0, 0}),
							framed(appendReply(nil, BatchAck{QueueDepth: 999}, nil))...)
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()

	sink := NewTCPSink(ln.Addr().String())
	if ack, err := sink.HandleBatchAck(RecordBatch{Agent: "agent-0", Seq: 1}); err == nil {
		t.Fatalf("batch 1 = %+v, want a transport error from two bad replies", ack)
	}
	ack, err := sink.HandleBatchAck(RecordBatch{Agent: "agent-0", Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ack != (BatchAck{QueueDepth: 7, QueueCap: 8}) {
		t.Fatalf("batch 2 ack = %+v, want the live connection's {7 8}", ack)
	}
	sink.Close()
	ln.Close()
	wg.Wait()
	if n := conns.Load(); n != 3 {
		t.Fatalf("client made %d connections, want 3", n)
	}
}

// TestBadReplyIsAnError: a peer that only ever answers with replies of
// unknown magic, or truncated replies, makes the call fail after its one
// retry instead of reading as a zero-value success.
func TestBadReplyIsAnError(t *testing.T) {
	for name, reply := range map[string][]byte{
		"unknown-magic": framed([]byte{'{', replyOK, 0, 0, 0, 0, 0, 0, 0, 0}),
		"truncated":     framed(appendReply(nil, BatchAck{}, nil))[:frameHeaderSize+4],
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					if _, err := readBody(bufio.NewReader(conn)); err == nil {
						conn.Write(reply)
					}
					conn.Close()
				}
			}()
			sink := NewTCPSink(ln.Addr().String())
			_, err = sink.HandleBatchAck(RecordBatch{Agent: "agent-0", Seq: 1})
			sink.Close()
			ln.Close()
			wg.Wait()
			var remote *RemoteError
			if err == nil || errors.As(err, &remote) {
				t.Fatalf("HandleBatchAck = %v, want a transport error", err)
			}
		})
	}
}
