package simnet

import (
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/vclock"
)

func newTestNet() *Network {
	return New(vclock.NewVirtual(time.Time{}), 1)
}

// echo serves one stream on node p: it reads one request, spends service
// on the clock, and writes the request back.
func echo(t *testing.T, n *Network, service time.Duration) {
	t.Helper()
	lis, err := n.Listen("p")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		n.Clock().Sleep(service)
		c.Write(buf)
	}()
}

// roundTrip writes req on a fresh stream from v to p and reads the echo,
// returning the round trip on the network's clock.
func roundTrip(t *testing.T, n *Network) time.Duration {
	t.Helper()
	c, err := n.Dial("v", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := n.Clock().Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo %q, %v", buf, err)
	}
	return n.Clock().Now().Sub(start)
}

func TestRoundTripFixedLatency(t *testing.T) {
	n := newTestNet()
	n.SetLink("v", "p", Fixed(500*time.Microsecond))
	echo(t, n, 2*time.Millisecond)
	if rtt := roundTrip(t, n); rtt != 3*time.Millisecond {
		t.Fatalf("rtt=%v, want 3ms (2×0.5 propagation + 2 service)", rtt)
	}
}

func TestRoundTripAdvancesClock(t *testing.T) {
	n := newTestNet()
	n.SetLink("v", "p", LANLink{Base: time.Millisecond, Jitter: time.Millisecond})
	echo(t, n, 0)
	before := n.Clock().Now()
	rtt := roundTrip(t, n)
	if got := n.Clock().Now().Sub(before); got != rtt || rtt < 2*time.Millisecond || rtt >= 4*time.Millisecond {
		t.Fatalf("clock advanced %v, measured rtt %v; want equal, in [2ms, 4ms)", got, rtt)
	}
}

func TestRoundTripErrors(t *testing.T) {
	n := newTestNet()
	if _, err := n.Dial("a", "b"); !errors.Is(err, ErrNoLink) {
		t.Fatalf("no link: %v", err)
	}
	n.SetLink("a", "b", Fixed(0))
	if _, err := n.Dial("a", "b"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial without a listener: %v", err)
	}
	lis, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if _, err := n.Listen("b"); err == nil {
		t.Fatal("a second listener on one node accepted")
	}
}

func TestPacketLoss(t *testing.T) {
	const rounds = 4000
	for _, tc := range []struct{ p, lo, hi float64 }{{0, 0, 0}, {0.5, 0.72, 0.78}, {1, 1, 1}} {
		rng := rand.New(rand.NewSource(3))
		lost := 0
		for i := 0; i < rounds; i++ {
			if RoundLost(rng, tc.p) {
				lost++
			}
		}
		if rate := float64(lost) / rounds; rate < tc.lo || rate > tc.hi {
			t.Errorf("p=%v: lost %.3f of rounds, want within [%v, %v] (1-(1-p)²)", tc.p, rate, tc.lo, tc.hi)
		}
	}
}

func TestLANLinkUnderOneMillisecond(t *testing.T) {
	// Paper Table II: every QUT LAN path measures < 1 ms.
	for _, h := range geo.TableIIHosts() {
		link := LANLink{
			DistanceKm: h.DistanceKm,
			Switches:   4,
			PerSwitch:  30 * time.Microsecond,
			Base:       100 * time.Microsecond,
		}
		rtt := 2 * link.OneWay(nil)
		if rtt >= time.Millisecond {
			t.Errorf("machine %d (%.2f km): RTT %v >= 1ms", h.Machine, h.DistanceKm, rtt)
		}
	}
}

func TestInternetLinkScalesWithDistance(t *testing.T) {
	short := InternetLink{DistanceKm: 10, LastMile: DefaultLastMile}
	long := InternetLink{DistanceKm: 3600, LastMile: DefaultLastMile}
	if long.OneWay(nil) <= short.OneWay(nil) {
		t.Fatal("Internet latency must grow with distance")
	}
	// Brisbane→Perth (3605 km) should land in the paper's ballpark:
	// Table III reports 82 ms; accept 60–110 ms.
	rtt := 2 * InternetLink{DistanceKm: 3605, LastMile: DefaultLastMile}.OneWay(nil)
	if rtt < 60*time.Millisecond || rtt > 110*time.Millisecond {
		t.Fatalf("Perth RTT %v outside plausible range", rtt)
	}
}

func TestPing(t *testing.T) {
	n := newTestNet()
	n.SetLink("a", "b", Fixed(7*time.Millisecond))
	rtt, err := n.Ping("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 14*time.Millisecond {
		t.Fatalf("ping rtt=%v", rtt)
	}
	if _, err := n.Ping("a", "ghost"); err == nil {
		t.Fatal("ping to unknown node accepted")
	}
}
