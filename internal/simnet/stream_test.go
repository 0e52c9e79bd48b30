package simnet_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// pair returns a network with nodes v and p on lat, p listening, and both
// ends of one stream from v to p.
func pair(t *testing.T, lat simnet.Latency) (*simnet.Network, net.Conn, net.Conn) {
	t.Helper()
	n := simnet.New(vclock.NewVirtual(time.Time{}), 1)
	n.SetLink("v", "p", lat)
	lis, err := n.Listen("p")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	client, err := n.Dial("v", "p")
	if err != nil {
		t.Fatal(err)
	}
	server, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return n, client, server
}

// shrinking draws 10 ms, then 1 ms: a later write that would overtake an
// earlier one if delivery followed the draws alone.
type shrinking struct{ next time.Duration }

func (s *shrinking) OneWay(*rand.Rand) time.Duration {
	d := 10*time.Millisecond - s.next
	s.next = 9 * time.Millisecond
	return d
}

func TestStreamDeliversInOrderUnderJitter(t *testing.T) {
	n, client, server := pair(t, &shrinking{})
	start := n.Clock().Now()
	client.Write([]byte("a"))
	client.Write([]byte("b"))
	buf := make([]byte, 1)
	for _, want := range []string{"a", "b"} {
		if _, err := server.Read(buf); err != nil || string(buf) != want {
			t.Fatalf("read %q, %v; want %q", buf, err, want)
		}
		if got := n.Clock().Now().Sub(start); got != 10*time.Millisecond {
			t.Fatalf("%q delivered at +%v, want +10ms: a later write may not overtake", want, got)
		}
	}
}

func TestStreamReadDeadlineOnVirtualTime(t *testing.T) {
	n, client, server := pair(t, simnet.Fixed(20*time.Millisecond))
	start := n.Clock().Now() // 2012: long past on the wall clock
	server.SetReadDeadline(start.Add(30 * time.Millisecond))
	client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("read due at +20ms failed under a +30ms virtual deadline: %v", err)
	}
	server.SetReadDeadline(n.Clock().Now().Add(10 * time.Millisecond))
	client.Write([]byte("y"))
	if _, err := server.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read due 20ms out under a 10ms deadline: %v", err)
	}
	if got := n.Clock().Now().Sub(start); got != 30*time.Millisecond {
		t.Fatalf("clock at +%v after the deadline fired, want +30ms", got)
	}
	server.SetReadDeadline(time.Time{})
	if _, err := server.Read(buf); err != nil || string(buf) != "y" {
		t.Fatalf("read after clearing the deadline: %q, %v", buf, err)
	}
}

func TestStreamRefusedAndReset(t *testing.T) {
	n, client, server := pair(t, simnet.Fixed(time.Millisecond))
	n.SetDown("p", true)
	if _, err := n.Dial("v", "p"); !errors.Is(err, simnet.ErrRefused) {
		t.Fatalf("dial to a down node: %v", err)
	}
	buf := make([]byte, 1)
	for name, c := range map[string]net.Conn{"client": client, "server": server} {
		if _, err := c.Read(buf); !errors.Is(err, simnet.ErrReset) {
			t.Fatalf("%s read on a reset stream: %v", name, err)
		}
		if _, err := c.Write(buf); !errors.Is(err, simnet.ErrReset) {
			t.Fatalf("%s write on a reset stream: %v", name, err)
		}
	}
	n.SetDown("p", false)
	for i := 0; i < 10; i++ {
		c, err := n.Dial("v", "p")
		if err != nil {
			t.Fatalf("dial after restore: %v", err)
		}
		c.Close()
		if _, err := c.Read(buf); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after close: %v", err)
		}
	}
	if live := simnet.LiveStreams(n); live != 1 {
		t.Fatalf("%d streams tracked after ten dial-close cycles, want only the latest", live)
	}
}

// diskProvider serves a fixed segment after a fixed look-up.
type diskProvider struct{ lookup time.Duration }

func (diskProvider) Name() string                  { return "disk" }
func (diskProvider) ClaimedPosition() geo.Position { return geo.Brisbane }
func (d diskProvider) FetchSegment(string, int64) ([]byte, time.Duration, error) {
	return []byte("segment"), d.lookup, nil
}

// muxRounds serves diskProvider on p, dials it from v through a pool, and
// returns the verifier's clock reading after the handshake and after each
// of rounds challenge rounds.
func muxRounds(t *testing.T, lat simnet.Latency, lookup time.Duration, rounds int) []time.Time {
	t.Helper()
	n := simnet.New(vclock.NewVirtual(time.Time{}), 7)
	n.SetLink("v", "p", lat)
	lis, err := n.Listen("p")
	if err != nil {
		t.Fatal(err)
	}
	srv := &core.ProverServer{Provider: diskProvider{lookup}, SimulateServiceTime: true}
	go srv.Serve(lis)
	pool := &core.ProverPool{Dial: n.Dialer("v")}
	defer func() {
		pool.Close()
		srv.Close()
	}()
	conn, _, err := pool.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	trace := []time.Time{n.Clock().Now()}
	for i := 0; i < rounds; i++ {
		if _, err := conn.GetSegment(context.Background(), "f", uint64(i)); err != nil {
			t.Fatal(err)
		}
		trace = append(trace, n.Clock().Now())
	}
	return trace
}

func TestMuxRoundMeasuresLinkAndLookup(t *testing.T) {
	const oneWay, lookup = 700 * time.Microsecond, 5 * time.Millisecond
	trace := muxRounds(t, simnet.Fixed(oneWay), lookup, 3)
	for i := 1; i < len(trace); i++ {
		if got := trace[i].Sub(trace[i-1]); got != 2*oneWay+lookup {
			t.Fatalf("round %d took %v on the verifier's clock, want 2·%v + %v", i, got, oneWay, lookup)
		}
	}
}

func TestMuxClockTraceReplays(t *testing.T) {
	lat := simnet.LANLink{Base: 100 * time.Microsecond, Jitter: 300 * time.Microsecond}
	a := muxRounds(t, lat, 2*time.Millisecond, 50)
	b := muxRounds(t, lat, 2*time.Millisecond, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with one seed produced different clock traces")
	}
}
