package core

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
	"repro/internal/wire"
)

// startServer runs a ProverServer on loopback and returns its address and
// a shutdown func.
func startServer(t *testing.T, provider cloud.Provider, simulate bool) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &ProverServer{Provider: provider, SimulateServiceTime: simulate}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns on Close
	}()
	return lis.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}
}

func tcpFixture(t *testing.T) (*por.Encoder, *por.EncodedFile, *cloud.Site) {
	t.Helper()
	enc := por.NewEncoder([]byte("tcp-master"))
	file := bytes.Repeat([]byte("tcp-audit-data-"), 1500)
	ef, err := enc.Encode("tcp-file", file)
	if err != nil {
		t.Fatal(err)
	}
	site := cloud.NewSite(cloud.DataCenter{
		Name: "local", Position: geo.Brisbane, Disk: disk.WD2500JD,
	}, 5)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	return enc, ef, site
}

// delayedConn sleeps before and after every round, the way a longer wire
// would.
type delayedConn struct {
	ProverConn
	oneWay time.Duration
}

func (c delayedConn) GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error) {
	time.Sleep(c.oneWay)
	seg, err := c.ProverConn.GetSegment(ctx, fileID, index)
	time.Sleep(c.oneWay)
	return seg, err
}

func TestTCPInjectedDelayTripsTiming(t *testing.T) {
	enc, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()

	signer, _ := crypt.NewSigner()
	verifier, _ := NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	policy := DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100})
	policy.TMax = 30 * time.Millisecond
	tpa, _ := NewTPA(enc, signer.Public(), policy)

	req, _ := tpa.NewRequest(ef.FileID, ef.Layout, 4)
	// 40 ms extra per round trip.
	st, err := verifier.RunAudit(context.Background(), req, delayedConn{conn, 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep := tpa.VerifyAudit(req, ef.Layout, st)
	if rep.Accepted || rep.TimingOK {
		t.Fatalf("delayed connection passed timing: max RTT %v", rep.MaxRTT)
	}
}

func TestTCPUnknownFileReturnsRemoteError(t *testing.T) {
	_, _, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	if _, err := conn.GetSegment(context.Background(), "ghost-file", 0); !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	// The connection must remain usable after a remote error.
	if _, err := conn.GetSegment(context.Background(), "tcp-file", 0); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestTCPMalformedFrameHandled(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, false)
	defer stop()
	raw := rawMuxConn(t, addr)
	defer raw.Close()
	// Garbage segment-request payload: the server must answer TypeError
	// on that stream, not crash or hang, and keep serving the connection.
	exchange := func(stream uint32, payload []byte) byte {
		t.Helper()
		if err := wire.WriteMuxFrame(raw, wire.TypeSegmentRequest, stream, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, reply, err := wire.ReadMuxFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		wire.PutBuffer(reply)
		if got != stream {
			t.Fatalf("reply on stream %d, want %d", got, stream)
		}
		return typ
	}
	if typ := exchange(7, []byte{0xFF}); typ != wire.TypeError {
		t.Fatalf("frame type %d, want error", typ)
	}
	if typ := exchange(8, wire.SegmentRequest{FileID: ef.FileID}.Encode()); typ != wire.TypeSegmentResponse {
		t.Fatalf("frame type %d after the malformed request, want a segment", typ)
	}
}

func TestTCPSimulatedServiceTime(t *testing.T) {
	_, ef, site := tcpFixture(t)
	addr, stop := startServer(t, &cloud.HonestProvider{Site: site}, true)
	defer stop()
	conn := dialMux(t, addr)
	defer conn.Close()
	start := time.Now()
	if _, err := conn.GetSegment(context.Background(), ef.FileID, 0); err != nil {
		t.Fatal(err)
	}
	// WD2500JD look-up is ≈13.1 ms; the served request must take at
	// least that.
	if el := time.Since(start); el < 13*time.Millisecond {
		t.Fatalf("simulated service time not applied: %v", el)
	}
}

func TestProverServerCloseIdempotent(t *testing.T) {
	_, _, site := tcpFixture(t)
	srv := &ProverServer{Provider: &cloud.HonestProvider{Site: site}}
	if err := srv.Close(); err != nil {
		t.Fatalf("close before serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestProverServerConcurrencyCapAndNegative(t *testing.T) {
	_, ef, site := tcpFixture(t)
	// Concurrency < 0 is documented as unlimited and must not panic;
	// a small positive cap must still serve every connection (queued).
	for _, conc := range []int{-1, 1} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &ProverServer{Provider: &cloud.HonestProvider{Site: site}, Concurrency: conc}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(lis)
		}()
		errc := make(chan error, 3)
		for i := 0; i < 3; i++ {
			go func() {
				conn, err := DialMuxProver(lis.Addr().String(), time.Second)
				if err != nil {
					errc <- err
					return
				}
				defer conn.Close()
				_, err = conn.GetSegment(context.Background(), ef.FileID, 0)
				errc <- err
			}()
		}
		for i := 0; i < 3; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("conc=%d: connection %d: %v", conc, i, err)
			}
		}
		_ = srv.Close()
		<-done
	}
}
