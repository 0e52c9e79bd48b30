package core

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// This file is the prover side of the transport: the prover listens — on
// TCP, or on a simulated node — and serves segment requests in mux frames
// (see internal/wire/doc.go); the verifier connects and times each round
// on its own clock.

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

	acceptLoop
}

// Serve accepts and handles connections until the listener is closed.
// It always returns a non-nil error (net.ErrClosed after Close).
func (s *ProverServer) Serve(lis net.Listener) error {
	return s.serve(lis, s.Concurrency, s.handle)
}

// acceptLoop is the listener half both servers share: serve hands each
// accepted connection to its own goroutine, at most limit at once (≤ 0 =
// unlimited; excess connections queue at the accept loop), and Close
// stops it.
type acceptLoop struct {
	mu     sync.Mutex
	closed bool
	lis    net.Listener
	wg     sync.WaitGroup
}

// serve accepts until the listener is closed, then waits for the
// connections being handled; it always returns a non-nil error.
func (a *acceptLoop) serve(lis net.Listener, limit int, handle func(net.Conn)) error {
	a.mu.Lock()
	a.lis = lis
	if a.closed {
		lis.Close()
	}
	a.mu.Unlock()
	var sem chan struct{}
	if limit > 0 {
		sem = make(chan struct{}, limit)
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			a.wg.Wait()
			return err
		}
		if sem != nil {
			sem <- struct{}{}
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			handle(conn)
			if sem != nil {
				<-sem
			}
		}()
	}
}

// Close stops the listener; connections being served run on until their
// peers hang up.
func (a *acceptLoop) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || a.lis == nil {
		a.closed = true
		return nil
	}
	a.closed = true
	return a.lis.Close()
}

// handle serves one connection: the handshake, then the mux loop.
func (s *ProverServer) handle(conn net.Conn) {
	defer conn.Close()
	if !acceptMuxHello(conn) {
		return
	}
	metricProverConns.Inc()
	s.serveMux(conn)
}

// fetch reads one segment from the provider, sleeping its modelled
// service latency on the connection's clock when the server simulates it,
// and records how far past the look-up that sleep returned.
func (s *ProverServer) fetch(clock vclock.Clock, fileID string, index uint64) ([]byte, error) {
	data, lookup, err := s.Provider.FetchSegment(fileID, int64(index))
	if err != nil {
		return nil, err
	}
	if s.SimulateServiceTime && lookup > 0 {
		start := clock.Now()
		clock.Sleep(lookup)
		metricProverLookupLate.ObserveDuration(max(clock.Now().Sub(start)-lookup, 0))
	}
	return data, nil
}

// muxServerConn is the server's per-connection mux state: the write half,
// the count of streams being served (on one P a flushing reply yields
// once while another is, so sibling replies share its Write), and the hand-off
// between the read loop and the connection's stream workers.
type muxServerConn struct {
	w       frameWriter
	serving atomic.Int32
	clock   vclock.Clock // look-ups sleep on it

	// jobs carries a decoded request to a parked worker. It is unbuffered:
	// the read loop sends only after claiming a worker that has counted
	// itself into idle, so a send waits at most for that worker's reply
	// to be queued.
	jobs chan streamJob
	idle atomic.Int32
}

// streamJob is one decoded segment request on its way to a worker.
type streamJob struct {
	stream uint32
	fileID string
	index  uint64
}

// serveMux runs the mux loop: the read loop only decodes and dispatches,
// stream work runs on the connection's resident workers, so one slow
// fetch cannot head-of-line-block the frames queued behind it. A request
// goes to an idle worker when there is one and starts a new worker when
// there is not, so a connection holds as many workers as its peer has had
// streams open at once — which Concurrency bounds when set — and they
// park between rounds instead of being started, and their stacks regrown,
// once per frame. All of them are gone when serveMux returns.
func (s *ProverServer) serveMux(conn net.Conn) {
	m := &muxServerConn{clock: clockOf(conn), jobs: make(chan streamJob)}
	// On one P a sibling reply runs only if the flusher yields; with more
	// it runs beside the Write and joins the next batch, and a yield could
	// only queue the reply behind unrelated work inside the timed round.
	oneP := runtime.GOMAXPROCS(0) == 1
	m.w = frameWriter{conn: conn, batch: true, writes: metricProverReplyWrites,
		yield: func() bool { return oneP && m.serving.Load() > 1 }}
	var sem chan struct{}
	if s.Concurrency > 0 {
		sem = make(chan struct{}, s.Concurrency)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(m.jobs)
	br := bufio.NewReaderSize(conn, muxReadBuf)
	var fileID string // the last ID requested: a connection audits one file for rounds on end
	for {
		typ, stream, payload, err := wire.ReadMuxFrame(br)
		if err != nil || m.w.failed() {
			return
		}
		switch typ {
		case wire.TypePing:
			metricProverPings.Inc()
			wire.PutBuffer(payload)
			if !m.w.reply(wire.TypePong, stream, nil) {
				return
			}
		case wire.TypeSegmentRequest:
			metricProverSegments.Inc()
			id, index, derr := wire.SplitSegmentRequest(payload)
			if derr == nil && string(id) != fileID { // the comparison does not allocate; the conversion does
				fileID = string(id)
			}
			wire.PutBuffer(payload)
			if derr != nil {
				if !m.w.refuse(stream, derr.Error()) {
					return
				}
				continue
			}
			if cap(sem) > 0 {
				sem <- struct{}{}
			}
			job := streamJob{stream: stream, fileID: fileID, index: index}
			m.serving.Add(1)
			if m.idle.Load() > 0 {
				m.idle.Add(-1) // only this loop decrements, so the claim cannot go negative
				m.jobs <- job
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.streamWorker(m, sem, job)
			}()
		default:
			wire.PutBuffer(payload)
			if !m.w.refuse(stream, "unknown frame type") {
				return
			}
		}
	}
}

// streamWorker answers challenge rounds, one at a time, until the
// connection's job channel closes. It counts itself idle before its reply
// leaves, not after: the peer's next request can arrive the moment the
// reply does, and must find this worker rather than start another. Every
// stream is answered — a failed fetch or a reply too large for a frame
// with a TypeError — and its slot is freed once the reply is queued.
func (s *ProverServer) streamWorker(m *muxServerConn, sem chan struct{}, job streamJob) {
	for ok := true; ok; job, ok = <-m.jobs {
		data, err := s.fetch(m.clock, job.fileID, job.index)
		m.idle.Add(1)
		if err != nil {
			m.w.refuse(job.stream, err.Error())
		} else {
			m.w.reply(wire.TypeSegmentResponse, job.stream, data)
		}
		m.serving.Add(-1)
		if cap(sem) > 0 {
			<-sem
		}
	}
}
