package control

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// maxFrameBytes bounds a single protocol frame (defense against corrupt
// length prefixes).
const maxFrameBytes = 16 << 20

// frame types.
const (
	frameControl = "control"
	frameOK      = "ok"
	frameError   = "error"
)

// envelope is the JSON wire message: a 4-byte big-endian length prefix
// followed by this structure. Control packages and replies travel as
// envelopes; record batches (wire.go) and aggregate batches (wire_agg.go)
// travel as binary bodies under the same length prefix, distinguished by
// their first byte.
type envelope struct {
	Type    string          `json:"type"`
	Control *ControlPackage `json:"control,omitempty"`
	// Ack rides on the "ok" reply to a batch frame: the collector's
	// backpressure report. Absent when the sink does not report
	// backpressure, which agents read as "no pressure signal".
	Ack   *BatchAck `json:"ack,omitempty"`
	Error string    `json:"error,omitempty"`
}

// writeBody frames a raw body with the 4-byte length prefix.
func writeBody(w io.Writer, body []byte) error {
	if len(body) > maxFrameBytes {
		return fmt.Errorf("control: frame too large: %d bytes", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("control: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("control: write frame body: %w", err)
	}
	return nil
}

func writeFrame(w io.Writer, env envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("control: encode frame: %w", err)
	}
	return writeBody(w, body)
}

// readBody reads one length-prefixed frame body, JSON or binary.
func readBody(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("control: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("control: read frame body: %w", err)
	}
	return body, nil
}

func readFrame(r io.Reader) (envelope, error) {
	body, err := readBody(r)
	if err != nil {
		return envelope{}, err
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return envelope{}, fmt.Errorf("control: decode frame: %w", err)
	}
	return env, nil
}

// Server accepts protocol connections and dispatches frames: control
// frames to an agent, batch frames to a sink. One Server can play the
// agent role (agent non-nil), the collector role (sink non-nil), or both.
type Server struct {
	ln    net.Listener
	agent ControlClient
	sink  RecordSink

	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// unsupportedAggFrames counts v5 aggregate frames rejected because the
	// sink does not implement AggSink — a fail-closed path: the frame is
	// refused with an error (the agent keeps or drops it by its own
	// policy), never half-ingested into the record ledger.
	unsupportedAggFrames atomic.Uint64
}

// UnsupportedAggFrames reports how many aggregate frames were refused
// because the sink cannot ingest them.
func (s *Server) UnsupportedAggFrames() uint64 { return s.unsupportedAggFrames.Load() }

// Serve starts accepting connections on ln. Close the server to stop.
func Serve(ln net.Listener, agent ControlClient, sink RecordSink) *Server {
	s := &Server{
		ln:     ln,
		agent:  agent,
		sink:   sink,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener, tears down live connections, and waits for
// handlers to finish.
func (s *Server) Close() error {
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	for {
		body, err := readBody(conn)
		if err != nil {
			return // EOF or protocol error: drop the connection
		}
		if err := writeFrame(conn, s.dispatch(body)); err != nil {
			return
		}
	}
}

// sinkHandle feeds a batch to the sink, preferring the acking interface
// so the reply can carry the collector's backpressure report.
func (s *Server) sinkHandle(b RecordBatch) (*BatchAck, error) {
	if acking, ok := s.sink.(AckingRecordSink); ok {
		ack, err := acking.HandleBatchAck(b)
		if err != nil {
			return nil, err
		}
		return &ack, nil
	}
	return nil, s.sink.HandleBatch(b)
}

// dispatch routes one frame body. Binary batch bodies (first byte
// batchMagic) and aggregate bodies (aggMagic) go straight to the sink;
// everything else is a JSON envelope.
func (s *Server) dispatch(body []byte) envelope {
	if len(body) > 0 && body[0] == aggMagic {
		agg, ok := s.sink.(AggSink)
		if s.sink == nil || !ok {
			s.unsupportedAggFrames.Add(1)
			return envelope{Type: frameError, Error: "collector does not support aggregate frames"}
		}
		batch, err := DecodeAggFrame(body)
		if err != nil {
			return envelope{Type: frameError, Error: err.Error()}
		}
		if err := agg.HandleAgg(batch); err != nil {
			return envelope{Type: frameError, Error: err.Error()}
		}
		return envelope{Type: frameOK}
	}
	if len(body) > 0 && body[0] == batchMagic {
		if s.sink == nil {
			return envelope{Type: frameError, Error: "not a collector endpoint"}
		}
		batch, err := DecodeBatchFrame(body)
		if err != nil {
			return envelope{Type: frameError, Error: err.Error()}
		}
		ack, err := s.sinkHandle(batch)
		if err != nil {
			return envelope{Type: frameError, Error: err.Error()}
		}
		return envelope{Type: frameOK, Ack: ack}
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return envelope{Type: frameError, Error: fmt.Sprintf("decode frame: %v", err)}
	}
	switch {
	case env.Type == frameControl && env.Control != nil:
		if s.agent == nil {
			return envelope{Type: frameError, Error: "not an agent endpoint"}
		}
		if err := s.agent.Apply(*env.Control); err != nil {
			return envelope{Type: frameError, Error: err.Error()}
		}
	default:
		return envelope{Type: frameError, Error: fmt.Sprintf("unknown frame %q", env.Type)}
	}
	return envelope{Type: frameOK}
}

// RemoteError is an application-level rejection from the far endpoint
// (e.g. a spec that failed verification on the agent). Transport failures
// are retried once; remote errors are returned as-is, since repeating the
// request would only repeat the rejection.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "control: remote error: " + e.Msg }

// client is a synchronous request/reply connection with lazy dialing and
// one reconnect attempt per call.
type client struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
}

func (c *client) roundTrip(body []byte) (envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reply, err := c.tryLocked(body)
	if err == nil {
		return reply, nil
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return envelope{}, err
	}
	// Transport failure: reset the connection and retry once.
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	return c.tryLocked(body)
}

func (c *client) tryLocked(body []byte) (envelope, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return envelope{}, fmt.Errorf("control: dial %s: %w", c.addr, err)
		}
		c.conn = conn
	}
	if err := writeBody(c.conn, body); err != nil {
		return envelope{}, err
	}
	reply, err := readFrame(c.conn)
	if err != nil {
		return envelope{}, err
	}
	if reply.Type == frameError {
		return envelope{}, &RemoteError{Msg: reply.Error}
	}
	return reply, nil
}

// Close tears down the connection.
func (c *client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// TCPControlClient pushes control packages to a remote agent endpoint.
type TCPControlClient struct {
	client
}

var _ ControlClient = (*TCPControlClient)(nil)

// NewTCPControlClient targets an agent server address.
func NewTCPControlClient(addr string) *TCPControlClient {
	return &TCPControlClient{client{addr: addr}}
}

// Apply implements ControlClient over TCP.
func (c *TCPControlClient) Apply(pkg ControlPackage) error {
	body, err := json.Marshal(envelope{Type: frameControl, Control: &pkg})
	if err != nil {
		return fmt.Errorf("control: encode frame: %w", err)
	}
	_, err = c.roundTrip(body)
	return err
}

// TCPSink ships record batches to a remote collector endpoint using the
// v4 binary batch frame and aggregate batches using the v5 frame.
type TCPSink struct {
	client
}

var _ AckingRecordSink = (*TCPSink)(nil)

// NewTCPSink targets a collector server address.
func NewTCPSink(addr string) *TCPSink {
	return &TCPSink{client: client{addr: addr}}
}

// encodeBufPool recycles binary batch-frame encode buffers across
// HandleBatch calls: the frame is fully written to the socket inside
// roundTrip, so the buffer can be reused the moment it returns, making
// steady-state shipping allocation-free on the encode side.
var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// HandleBatch implements RecordSink over TCP.
func (s *TCPSink) HandleBatch(b RecordBatch) error {
	_, err := s.HandleBatchAck(b)
	return err
}

// HandleBatchAck implements AckingRecordSink over TCP: the collector's
// backpressure report is read out of the "ok" reply envelope. A reply
// without an ack comes back as the zero BatchAck — "no pressure signal".
func (s *TCPSink) HandleBatchAck(b RecordBatch) (BatchAck, error) {
	bufp := encodeBufPool.Get().(*[]byte)
	body, err := AppendBatchFrame((*bufp)[:0], &b)
	if err != nil {
		encodeBufPool.Put(bufp)
		return BatchAck{}, err
	}
	reply, err := s.roundTrip(body)
	*bufp = body[:0]
	encodeBufPool.Put(bufp)
	if err != nil {
		return BatchAck{}, err
	}
	if reply.Ack != nil {
		return *reply.Ack, nil
	}
	return BatchAck{}, nil
}

var _ AggSink = (*TCPSink)(nil)

// HandleAgg implements AggSink over TCP with the v5 binary aggregate
// frame. A collector whose sink cannot ingest aggregates answers with an
// error frame, which surfaces here as a RemoteError — the agent's
// fail-closed signal.
func (s *TCPSink) HandleAgg(b AggBatch) error {
	bufp := encodeBufPool.Get().(*[]byte)
	body, err := AppendAggFrame((*bufp)[:0], &b)
	if err != nil {
		encodeBufPool.Put(bufp)
		return err
	}
	_, err = s.roundTrip(body)
	*bufp = body[:0]
	encodeBufPool.Put(bufp)
	return err
}
