package core

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/wire"
)

// This file is the prover side of the live-deployment transport: the
// prover listens on TCP and serves segment requests in mux v2 frames
// (see internal/wire/doc.go); the verifier connects and times each round
// on the wall clock.

// ProverServer serves segment requests from a cloud.Provider over a
// listener. SimulateServiceTime controls whether the provider's modelled
// service latency is actually slept (true for realistic end-to-end timing
// demos, false to serve at line rate). Concurrency bounds the server two
// ways (≤ 0 = unlimited): connections served simultaneously — excess
// connections queue at the accept loop — and, on each connection,
// streams served concurrently, so one greedy peer cannot fan a single
// socket out into unbounded goroutines.
type ProverServer struct {
	Provider            cloud.Provider
	SimulateServiceTime bool
	Concurrency         int

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	wg     sync.WaitGroup
}

// Serve accepts and handles connections until the listener is closed.
// It always returns a non-nil error (net.ErrClosed after Close).
func (s *ProverServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	var sem chan struct{}
	if s.Concurrency > 0 {
		sem = make(chan struct{}, s.Concurrency)
	}
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		if cap(sem) > 0 {
			sem <- struct{}{}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if cap(sem) > 0 {
				defer func() { <-sem }()
			}
			s.handle(conn)
		}()
	}
}

// Close stops the listener; in-flight connections finish their current
// request.
func (s *ProverServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.lis != nil {
		return s.lis.Close()
	}
	return nil
}

// handle serves one connection. The first frame must be a well-formed
// Hello offering at least wire.MuxVersion; anything else is answered
// with one TypeError and the connection is closed.
func (s *ProverServer) handle(conn net.Conn) {
	defer conn.Close()
	typ, payload, err := wire.ReadFramePooled(conn)
	if err != nil {
		return // EOF or broken peer: nothing to answer
	}
	hello, herr := wire.DecodeHello(payload)
	wire.PutBuffer(payload)
	if typ != wire.TypeHello || herr != nil || hello.MaxVersion < wire.MuxVersion {
		_ = wire.WriteFrame(conn, wire.TypeError, wire.ErrorMessage{Msg: "mux v2 hello required"}.Encode()) // closing either way
		return
	}
	if wire.WriteFrame(conn, wire.TypeHelloAck, wire.HelloAck{Version: wire.MuxVersion}.Encode()) != nil {
		return
	}
	metricProverConns.Inc()
	s.serveMux(conn)
}

// fetch reads one segment from the provider, sleeping its modelled
// service latency when the server simulates it.
func (s *ProverServer) fetch(fileID string, index uint64) ([]byte, error) {
	data, lookup, err := s.Provider.FetchSegment(fileID, int64(index))
	if err != nil {
		return nil, err
	}
	if s.SimulateServiceTime && lookup > 0 {
		time.Sleep(lookup)
	}
	return data, nil
}

// muxServerConn is the server's per-connection mux state: a mutex-guarded
// write path (every frame leaves in one Write call) and a kill switch
// that stops the read loop once any stream hits a fatal write error.
type muxServerConn struct {
	conn net.Conn
	wmu  sync.Mutex
	dead atomic.Bool
}

// writeFrame encodes one mux frame through a pooled buffer and writes it
// as one syscall. On a write failure the connection is marked dead and
// closed, which unblocks the read loop.
func (m *muxServerConn) writeFrame(typ byte, stream uint32, payload []byte) bool {
	buf, err := wire.AppendMuxFrame(wire.GetBuffer(0)[:0], typ, stream, payload)
	if err != nil {
		wire.PutBuffer(buf)
		return false
	}
	m.wmu.Lock()
	_, err = m.conn.Write(buf)
	m.wmu.Unlock()
	wire.PutBuffer(buf)
	if err != nil {
		if m.dead.CompareAndSwap(false, true) {
			m.conn.Close()
		}
		return false
	}
	return true
}

// serveMux runs the mux loop: the read loop only decodes and dispatches,
// stream work runs in bounded goroutines, so one slow fetch cannot
// head-of-line-block the frames queued behind it.
func (s *ProverServer) serveMux(conn net.Conn) {
	m := &muxServerConn{conn: conn}
	var sem chan struct{}
	if s.Concurrency > 0 {
		sem = make(chan struct{}, s.Concurrency)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		typ, stream, payload, err := wire.ReadMuxFrame(br)
		if err != nil || m.dead.Load() {
			return
		}
		switch typ {
		case wire.TypePing:
			metricProverPings.Inc()
			wire.PutBuffer(payload)
			if !m.writeFrame(wire.TypePong, stream, nil) {
				return
			}
		case wire.TypeSegmentRequest:
			metricProverSegments.Inc()
			req, derr := wire.DecodeSegmentRequest(payload)
			wire.PutBuffer(payload)
			if derr != nil {
				if !m.writeFrame(wire.TypeError, stream, wire.ErrorMessage{Msg: derr.Error()}.Encode()) {
					return
				}
				continue
			}
			if cap(sem) > 0 {
				sem <- struct{}{}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if cap(sem) > 0 {
					defer func() { <-sem }()
				}
				s.serveSegmentStream(m, stream, req)
			}()
		default:
			wire.PutBuffer(payload)
			if !m.writeFrame(wire.TypeError, stream, wire.ErrorMessage{Msg: "unknown frame type"}.Encode()) {
				return
			}
		}
	}
}

// serveSegmentStream answers one challenge round.
func (s *ProverServer) serveSegmentStream(m *muxServerConn, stream uint32, req wire.SegmentRequest) {
	data, err := s.fetch(req.FileID, req.Index)
	if err != nil {
		m.writeFrame(wire.TypeError, stream, wire.ErrorMessage{Msg: err.Error()}.Encode())
		return
	}
	m.writeFrame(wire.TypeSegmentResponse, stream, data)
}
