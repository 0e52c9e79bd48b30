// Package simnet is the discrete-event network simulator that substitutes
// for the paper's physical testbed (QUT LAN, Australian Internet paths).
//
// Protocol code observes only round-trip times; simnet produces those RTTs
// from the same physical model the paper reasons with: propagation at
// 2c/3 in fibre LANs (§V-E) and an effective 4c/9 across Internet paths
// (§V-F), plus last-mile and switching terms and optional jitter. Nodes
// listen and dial streams that implement net.Conn (stream.go), so the
// shipped transport runs over the simulator unchanged; Ping samples a
// link alone. Time is virtual (vclock.Virtual), so simulations are fast
// and perfectly reproducible.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/vclock"
)

// ErrNoLink reports two nodes that SetLink never joined.
var ErrNoLink = errors.New("simnet: no link between nodes")

// Latency models the one-way delay of a link.
type Latency interface {
	OneWay(rng *rand.Rand) time.Duration
}

// Fixed is a constant one-way delay.
type Fixed time.Duration

// OneWay returns the constant delay.
func (f Fixed) OneWay(*rand.Rand) time.Duration { return time.Duration(f) }

// LANLink models an optic-fibre / Ethernet local network path: propagation
// at 2c/3 over the cable distance, a per-switch forwarding cost, and a
// fixed stack overhead. With the defaults used in experiment E2 every
// campus-scale path stays well under the paper's 1 ms LAN budget.
type LANLink struct {
	DistanceKm float64
	Switches   int
	PerSwitch  time.Duration // forwarding cost per switch
	Base       time.Duration // endpoint stack overhead
	Jitter     time.Duration // uniform [0, Jitter)
}

// OneWay returns the one-way LAN delay.
func (l LANLink) OneWay(rng *rand.Rand) time.Duration {
	d := geo.OneWayTime(l.DistanceKm, geo.SpeedFiberKmPerMs)
	d += time.Duration(l.Switches) * l.PerSwitch
	d += l.Base
	if l.Jitter > 0 && rng != nil {
		d += time.Duration(rng.Int63n(int64(l.Jitter)))
	}
	return d
}

// InternetLink models a wide-area path: a last-mile access delay (the
// paper measured from ADSL2), propagation at 4c/9 over the great-circle
// distance inflated by a path-stretch factor (routes are not geodesics),
// and optional jitter.
type InternetLink struct {
	DistanceKm  float64
	PathStretch float64       // ≥1; 0 means DefaultPathStretch
	LastMile    time.Duration // one-way access-network delay
	Jitter      time.Duration // uniform [0, Jitter)
}

// Default parameters calibrated against the paper's Table III rows.
const (
	DefaultPathStretch = 1.3
	DefaultLastMile    = 9 * time.Millisecond
)

// OneWay returns the one-way Internet delay.
func (l InternetLink) OneWay(rng *rand.Rand) time.Duration {
	stretch := l.PathStretch
	if stretch <= 0 {
		stretch = DefaultPathStretch
	}
	d := geo.OneWayTime(l.DistanceKm*stretch, geo.SpeedInternetKmPerMs)
	d += l.LastMile
	if l.Jitter > 0 && rng != nil {
		d += time.Duration(rng.Int63n(int64(l.Jitter)))
	}
	return d
}

// Network is a simulated network over a virtual clock. It is safe for
// concurrent use; it is deterministic while one exchange at a time is in
// flight, because every jitter draw comes from one seeded stream.
type Network struct {
	clock *vclock.Virtual

	mu        sync.Mutex
	rng       *rand.Rand
	links     map[[2]string]Latency
	listeners map[string]*listener
	down      map[string]bool
	live      []*streamConn // dialed streams, for SetDown to reset
}

// New creates an empty network with the given seed for jitter draws.
func New(clock *vclock.Virtual, seed int64) *Network {
	if clock == nil {
		clock = vclock.NewVirtual(time.Time{})
	}
	return &Network{
		clock:     clock,
		rng:       rand.New(rand.NewSource(seed)),
		links:     make(map[[2]string]Latency),
		listeners: make(map[string]*listener),
		down:      make(map[string]bool),
	}
}

// Clock exposes the network's virtual clock.
func (n *Network) Clock() *vclock.Virtual { return n.clock }

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetLink installs a bidirectional latency model between two nodes. A
// node is a name: it exists once a link joins it to another.
func (n *Network) SetLink(a, b string, lat Latency) {
	n.mu.Lock()
	n.links[pairKey(a, b)] = lat
	n.mu.Unlock()
}

// oneWay draws one delay on a link from the network's seeded stream.
func (n *Network) oneWay(lat Latency) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return lat.OneWay(n.rng)
}

// linkFor resolves the latency model between two nodes.
// Caller holds n.mu.
func (n *Network) linkFor(a, b string) (Latency, error) {
	lat, ok := n.links[pairKey(a, b)]
	if !ok {
		return nil, fmt.Errorf("%w: %s-%s", ErrNoLink, a, b)
	}
	return lat, nil
}

// RoundLost draws one exchange's fate on a path that loses each packet
// with probability p: its request and, when that got through, its reply.
func RoundLost(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p || rng.Float64() < p
}

// Ping measures the RTT between a and b from the link model alone (no
// service time), like an ICMP echo against the network stack, and
// advances the clock by it.
func (n *Network) Ping(a, b string) (time.Duration, error) {
	n.mu.Lock()
	lat, err := n.linkFor(a, b)
	var rtt time.Duration
	if err == nil {
		rtt = lat.OneWay(n.rng) + lat.OneWay(n.rng)
	}
	n.mu.Unlock()
	n.clock.Advance(rtt)
	return rtt, err
}
