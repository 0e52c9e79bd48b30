package core

import (
	"bufio"
	"context"
	"net"
	"sync"

	"repro/internal/wire"
)

// VerifierServer exposes a verifier device to remote TPAs: it accepts
// audit requests on the same mux framing the prover leg speaks (see
// internal/wire/doc.go), has Runner run the timed rounds, and returns the
// signed transcript on the request's stream. This is the third leg that
// makes the deployment fully distributed (TPA, verifier and prover each
// on their own host), matching the paper's Fig. 4 architecture.
type VerifierServer struct {
	// Runner runs each requested audit — in the daemon a PooledRunner
	// over the device's warm prover connection. Whether its transcripts
	// are signed one by one or batch-attested is the runner's verifier's
	// business; the TPA reads the form off the transcript.
	Runner AuditRunner

	acceptLoop
}

// maxConnAudits bounds the audits one TPA connection may have in flight.
// A request past the bound is refused rather than queued, so the read
// loop never stops reading and always notices the connection ending.
const maxConnAudits = 256

// Serve accepts TPA connections until the listener closes.
func (s *VerifierServer) Serve(lis net.Listener) error { return s.serve(lis, 0, s.handle) }

// handle serves one TPA connection: the handshake, then a read loop that
// answers pings itself and runs every audit request on its own goroutine,
// so a TPA's concurrent audits overlap. The audits run under a context
// that ends with the connection — a TPA that has gone is owed no
// transcript, so its rounds stop — and all of them have returned when
// handle does.
func (s *VerifierServer) handle(conn net.Conn) {
	defer conn.Close()
	if !acceptMuxHello(conn) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	var audits sync.WaitGroup
	defer audits.Wait()
	defer cancel()

	w := frameWriter{conn: conn, batch: true}
	inFlight := make(chan struct{}, maxConnAudits)
	br := bufio.NewReaderSize(conn, muxReadBuf)
	for {
		typ, stream, payload, err := wire.ReadMuxFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case wire.TypePing:
			wire.PutBuffer(payload)
			w.reply(wire.TypePong, stream, nil)
		case wire.TypeAuditRequest:
			req, derr := DecodeAuditRequest(payload) // copies what it keeps
			wire.PutBuffer(payload)
			if derr != nil {
				w.refuse(stream, derr.Error())
				continue
			}
			select {
			case inFlight <- struct{}{}:
			default:
				w.refuse(stream, "too many audits in flight on this connection")
				continue
			}
			audits.Add(1)
			go func() {
				defer audits.Done()
				defer func() { <-inFlight }()
				st, err := s.Runner.RunAudit(ctx, req)
				if err != nil {
					w.refuse(stream, err.Error())
					return
				}
				w.reply(wire.TypeSignedTranscript, stream, EncodeSignedTranscript(st))
			}()
		default:
			wire.PutBuffer(payload)
			w.refuse(stream, "unknown frame type")
		}
	}
}
