package control

import (
	"bufio"
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

// frameHeaderSize is the 4-byte big-endian length prefix in front of
// every frame body. Senders reserve it at the front of the buffer they
// encode into, so a frame goes out in one Write.
const frameHeaderSize = 4

// serverReadBuf sizes the server's per-connection reader to hold a whole
// flush-sized batch frame (≈4.4 KB for 90 records), so one read syscall
// usually delivers a frame; the client's reader, which only sees small
// replies, keeps bufio's default size.
const serverReadBuf = 64 << 10

// frameControl is the type of a control-package request.
const frameControl = "control"

// envelope is the JSON body of a control request. Record batches
// (wire.go) and aggregate batches (wire_agg.go) travel as binary bodies
// under the same length prefix, distinguished by their first byte, and
// every request is answered with a binary reply (wire_reply.go).
type envelope struct {
	Type    string          `json:"type"`
	Control *ControlPackage `json:"control,omitempty"`
}

// finishFrame patches the length prefix reserved at frame[:frameHeaderSize]
// with the size of the body behind it. A body over maxFrameBytes is
// refused, so an oversized frame is never sent.
func finishFrame(frame []byte) error {
	n := len(frame) - frameHeaderSize
	if n > maxFrameBytes {
		return fmt.Errorf("control: frame too large: %d bytes", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// writeFrame finishes frame and sends prefix and body in one Write.
func writeFrame(w io.Writer, frame []byte) error {
	if err := finishFrame(frame); err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("control: write frame: %w", err)
	}
	return nil
}

// readBody reads one length-prefixed frame body. The body is always a
// freshly allocated copy, never a view of r's buffer: a decoded
// RecordBatch aliases it (RawRecords), and sinks may keep batches past
// the call (the collector's ingest queue), while r is reused for the
// next frame on the connection.
func readBody(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(frameHeaderSize)
	if err != nil {
		return nil, err // io.EOF passes through for clean close
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameBytes {
		return nil, fmt.Errorf("control: frame of %d bytes exceeds limit", n)
	}
	r.Discard(frameHeaderSize)
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("control: read frame body: %w", err)
	}
	return body, nil
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
	r := bufio.NewReaderSize(conn, serverReadBuf)
	reply := make([]byte, frameHeaderSize, frameHeaderSize+replyHeaderSize+64)
	for {
		body, err := readBody(r)
		if err != nil {
			return // EOF or protocol error: drop the connection
		}
		ack, err := s.dispatch(body)
		reply = appendReply(reply[:frameHeaderSize], ack, err)
		if err := writeFrame(conn, reply); err != nil {
			return
		}
	}
}

// sinkHandle feeds a batch to the sink, preferring the acking interface
// so the reply can carry the collector's backpressure report. A sink
// without it acks with the zero BatchAck — "no pressure signal".
func (s *Server) sinkHandle(b RecordBatch) (BatchAck, error) {
	if acking, ok := s.sink.(AckingRecordSink); ok {
		return acking.HandleBatchAck(b)
	}
	return BatchAck{}, s.sink.HandleBatch(b)
}

// dispatch routes one frame body and returns what the reply carries.
// Binary batch bodies (first byte batchMagic) and aggregate bodies
// (aggMagic) go straight to the sink; everything else is a JSON control
// envelope.
func (s *Server) dispatch(body []byte) (BatchAck, error) {
	if len(body) > 0 && body[0] == aggMagic {
		agg, ok := s.sink.(AggSink)
		if s.sink == nil || !ok {
			s.unsupportedAggFrames.Add(1)
			return BatchAck{}, errors.New("collector does not support aggregate frames")
		}
		batch, err := DecodeAggFrame(body)
		if err != nil {
			return BatchAck{}, err
		}
		return BatchAck{}, agg.HandleAgg(batch)
	}
	if len(body) > 0 && body[0] == batchMagic {
		if s.sink == nil {
			return BatchAck{}, errors.New("not a collector endpoint")
		}
		batch, err := DecodeBatchFrame(body)
		if err != nil {
			return BatchAck{}, err
		}
		return s.sinkHandle(batch)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return BatchAck{}, fmt.Errorf("decode frame: %v", err)
	}
	if env.Type != frameControl || env.Control == nil {
		return BatchAck{}, fmt.Errorf("unknown frame %q", env.Type)
	}
	if s.agent == nil {
		return BatchAck{}, errors.New("not an agent endpoint")
	}
	return BatchAck{}, s.agent.Apply(*env.Control)
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
	// r reads replies off conn. It is reset onto every newly dialled
	// connection, so bytes buffered from a dead one are never read as a
	// reply.
	r *bufio.Reader
}

// roundTrip sends one frame — a body behind frameHeaderSize reserved
// bytes, which it patches with the length — and returns the reply's ack.
// An oversized frame is refused before anything is dialled or sent.
func (c *client) roundTrip(frame []byte) (BatchAck, error) {
	if err := finishFrame(frame); err != nil {
		return BatchAck{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ack, err := c.tryLocked(frame)
	if err == nil {
		return ack, nil
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return BatchAck{}, err
	}
	return c.tryLocked(frame) // transport failure: retry once on a new connection
}

// tryLocked makes one exchange. A transport failure closes the
// connection, so nothing left unread on it can answer a later request.
func (c *client) tryLocked(frame []byte) (BatchAck, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return BatchAck{}, fmt.Errorf("control: dial %s: %w", c.addr, err)
		}
		c.conn = conn
		if c.r == nil {
			c.r = bufio.NewReader(conn)
		} else {
			c.r.Reset(conn) // drops anything buffered from the old connection
		}
	}
	ack, err := c.exchangeLocked(frame)
	if err != nil {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			c.closeLocked()
		}
		return BatchAck{}, err
	}
	return ack, nil
}

func (c *client) exchangeLocked(frame []byte) (BatchAck, error) {
	if _, err := c.conn.Write(frame); err != nil {
		return BatchAck{}, fmt.Errorf("control: write frame: %w", err)
	}
	body, err := readBody(c.r)
	if err != nil {
		return BatchAck{}, err
	}
	return decodeReply(body)
}

func (c *client) closeLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Close tears down the connection.
func (c *client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeLocked()
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
	frame := append(make([]byte, frameHeaderSize, frameHeaderSize+len(body)), body...)
	_, err = c.roundTrip(frame)
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

// encodeBufPool recycles frame encode buffers across HandleBatchAck and
// HandleAgg calls: the frame is fully written to the socket inside
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
// backpressure report is read out of the reply frame. A collector whose
// sink reports no backpressure acks with the zero BatchAck — "no
// pressure signal".
func (s *TCPSink) HandleBatchAck(b RecordBatch) (BatchAck, error) {
	bufp := encodeBufPool.Get().(*[]byte)
	frame, err := AppendBatchFrame((*bufp)[:frameHeaderSize], &b)
	if err != nil {
		encodeBufPool.Put(bufp)
		return BatchAck{}, err
	}
	ack, err := s.roundTrip(frame)
	*bufp = frame[:0]
	encodeBufPool.Put(bufp)
	return ack, err
}

var _ AggSink = (*TCPSink)(nil)

// HandleAgg implements AggSink over TCP with the v5 binary aggregate
// frame. A collector whose sink cannot ingest aggregates answers with an
// error reply, which surfaces here as a RemoteError — the agent's
// fail-closed signal.
func (s *TCPSink) HandleAgg(b AggBatch) error {
	bufp := encodeBufPool.Get().(*[]byte)
	frame, err := AppendAggFrame((*bufp)[:frameHeaderSize], &b)
	if err != nil {
		encodeBufPool.Put(bufp)
		return err
	}
	_, err = s.roundTrip(frame)
	*bufp = frame[:0]
	encodeBufPool.Put(bufp)
	return err
}
