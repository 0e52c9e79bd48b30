// Package cloud simulates the storage-provider side of GeoProof: data
// centres with parametric disks, honest providers that serve segments from
// the contracted location, and the malicious configurations of the paper's
// threat model — most importantly the Fig. 6 relay attack, where the
// contracted site forwards every request to a cheaper remote data centre.
package cloud

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockfile"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/simnet"
)

// Errors reported by providers.
var (
	ErrNoSuchFile = errors.New("cloud: no such file")
	ErrBadIndex   = errors.New("cloud: segment index out of range")
)

// Provider is what the verifier device talks to: something that serves
// file segments with some service latency. The latency is the provider's
// *local cost* (disk look-up, and for cheats any internal relaying);
// network propagation between verifier and provider is modelled
// separately by the caller's link.
type Provider interface {
	// Name identifies the provider configuration in experiment output.
	Name() string
	// FetchSegment returns segment i of the named file (payload‖tag)
	// and the service time spent producing it.
	FetchSegment(fileID string, i int64) ([]byte, time.Duration, error)
}

// DataCenter is a physical site: a position and a disk technology.
type DataCenter struct {
	Name     string
	Position geo.Position
	Disk     disk.Model
	// DiskJitter adds uniform noise to look-ups, modelling load.
	DiskJitter time.Duration
}

// storedFile is one encoded file resident in a data centre.
type storedFile struct {
	layout blockfile.Layout
	disk   *disk.SimDisk
}

// Site is an operating data centre holding encoded files on simulated
// disks.
type Site struct {
	dc    DataCenter
	files map[string]*storedFile
	seed  int64
}

// NewSite brings up a data centre.
func NewSite(dc DataCenter, seed int64) *Site {
	return &Site{dc: dc, files: make(map[string]*storedFile), seed: seed}
}

// DataCenter returns the site's static description.
func (s *Site) DataCenter() DataCenter { return s.dc }

// Store places an encoded file (segments with embedded tags) on the
// site's disk.
func (s *Site) Store(fileID string, layout blockfile.Layout, data []byte) {
	s.files[fileID] = &storedFile{
		layout: layout,
		disk:   disk.NewSimDisk(s.dc.Disk, data, s.dc.DiskJitter, s.seed),
	}
	s.seed++
}

// StoreOn places an encoded file whose bytes are served by an external
// backend instead of a copied in-memory slice — the seam that lets a
// prover serve audits straight from a persistent internal/store.Store
// (cmd/geoproofd -store) while keeping the site's disk latency model.
func (s *Site) StoreOn(fileID string, layout blockfile.Layout, backend disk.Backend) {
	s.files[fileID] = &storedFile{
		layout: layout,
		disk:   disk.NewSimDiskOn(s.dc.Disk, backend, s.dc.DiskJitter, s.seed),
	}
	s.seed++
}

// Corrupt damages nBytes starting at off in the stored file, for
// corruption experiments.
func (s *Site) Corrupt(fileID string, off, nBytes int) error {
	f, ok := s.files[fileID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchFile, fileID)
	}
	return f.disk.Corrupt(off, nBytes)
}

// CorruptRandomSegments trashes a fraction of whole segments chosen
// pseudorandomly, the adversary model of §V-C(a).
func (s *Site) CorruptRandomSegments(fileID string, fraction float64, seed int64) (int, error) {
	f, ok := s.files[fileID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, fileID)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(f.layout.Segments)
	count := int(float64(n) * fraction)
	segSize := f.layout.SegmentSize()
	for _, idx := range rng.Perm(n)[:count] {
		if err := f.disk.Corrupt(idx*segSize, segSize); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// ReadSegment fetches one segment from the site's disk, charging the disk
// model's look-up latency.
func (s *Site) ReadSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	f, ok := s.files[fileID]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoSuchFile, fileID)
	}
	off, err := f.layout.SegmentOffset(i)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadIndex, i)
	}
	return f.disk.ReadAt(int(off), f.layout.SegmentSize())
}

// Layout returns the layout of a stored file.
func (s *Site) Layout(fileID string) (blockfile.Layout, error) {
	f, ok := s.files[fileID]
	if !ok {
		return blockfile.Layout{}, fmt.Errorf("%w: %s", ErrNoSuchFile, fileID)
	}
	return f.layout, nil
}

// HonestProvider serves every request from the contracted site.
type HonestProvider struct {
	Site *Site
}

var _ Provider = (*HonestProvider)(nil)

// Name labels the configuration.
func (p *HonestProvider) Name() string { return "honest@" + p.Site.dc.Name }

// FetchSegment reads from the local disk.
func (p *HonestProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	return p.Site.ReadSegment(fileID, i)
}

// RelayProvider is the Fig. 6 adversary: the contracted front site holds
// no data and forwards every request over an Internet path to a remote
// site (typically with faster disks, bought with the money saved). Its
// service time is the full relay round trip plus the remote look-up.
type RelayProvider struct {
	Front  DataCenter // contracted site, claimed in the SLA
	Remote *Site      // where the data actually lives
	// Link models the front↔remote Internet path.
	Link simnet.InternetLink
	rng  *rand.Rand
}

var _ Provider = (*RelayProvider)(nil)

// NewRelayProvider wires the front site to the remote site over the given
// link.
func NewRelayProvider(front DataCenter, remote *Site, link simnet.InternetLink, seed int64) *RelayProvider {
	return &RelayProvider{Front: front, Remote: remote, Link: link, rng: rand.New(rand.NewSource(seed))}
}

// Name labels the configuration.
func (p *RelayProvider) Name() string {
	return fmt.Sprintf("relay@%s->%s", p.Front.Name, p.Remote.dc.Name)
}

// FetchSegment forwards to the remote site; the verifier sees relay RTT
// plus the remote disk's look-up as "service time".
func (p *RelayProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	data, lookup, err := p.Remote.ReadSegment(fileID, i)
	if err != nil {
		return nil, 0, err
	}
	relay := p.Link.OneWay(p.rng) + p.Link.OneWay(p.rng)
	return data, relay + lookup, nil
}

// ThrottledProvider wraps a provider with additional fixed service delay,
// modelling an overloaded or deliberately slow site; used for the false-
// rejection ablation.
type ThrottledProvider struct {
	Inner Provider
	Extra time.Duration
}

var _ Provider = (*ThrottledProvider)(nil)

// Name labels the configuration.
func (p *ThrottledProvider) Name() string { return p.Inner.Name() + "+throttle" }

// FetchSegment passes through, slower.
func (p *ThrottledProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	data, lat, err := p.Inner.FetchSegment(fileID, i)
	return data, lat + p.Extra, err
}

// LossyProvider serves a site over a path that loses packets with
// probability P (simnet.RoundLost draws each round's fate). A lost round
// fails alone with an error, which a transport answers with an error
// frame, so the rest of the audit carries on. Rand must not be shared
// between concurrent rounds.
type LossyProvider struct {
	Provider
	P    float64
	Rand *rand.Rand
}

// FetchSegment fails the rounds the path loses.
func (p *LossyProvider) FetchSegment(fileID string, i int64) ([]byte, time.Duration, error) {
	if simnet.RoundLost(p.Rand, p.P) {
		return nil, 0, errors.New("packet lost")
	}
	return p.Provider.FetchSegment(fileID, i)
}

// SLA is the contracted storage location: data must stay within RadiusKm
// of Center.
type SLA struct {
	Center   geo.Position
	RadiusKm float64
}

// Permits reports whether a position satisfies the SLA.
func (s SLA) Permits(p geo.Position) bool {
	return s.Center.DistanceKm(p) <= s.RadiusKm
}
