// Package disk models hard-disk look-up latency as the paper does in §V-D:
//
//	Δt_L = Δt_seek + Δt_rotate + Δt_transfer
//
// with Δt_transfer derived from the media transfer rate. The catalog holds
// the five drives of the paper's Table I, and SimDisk turns the parametric
// model into a simulated storage device with optional jitter —
// the substitute for the physical drives the authors reasoned about.
package disk

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// Model holds the performance parameters of one drive. AvgSeek and
// AvgRotate are the catalog averages; MediaRateMbps is the sustained media
// transfer rate (megabits per second) that the paper's worked examples use
// for Δt_transfer; TableIDR is the "avg(IDR)" column exactly as printed in
// Table I.
type Model struct {
	Name          string
	RPM           int
	AvgSeek       time.Duration
	AvgRotate     time.Duration
	MediaRateMbps float64
	TableIDR      string // Table I "avg(IDR) Mb/s" cell, verbatim
}

// Catalog entries for the paper's Table I. The worked examples in §V-D use
// media rates of 748 Mb/s (WD2500JD) and 647 Mb/s (IBM 36Z15); the other
// drives reuse their printed IDR figures scaled to megabits.
var (
	IBM36Z15 = Model{
		Name: "IBM 36Z15", RPM: 15000,
		AvgSeek: 3400 * time.Microsecond, AvgRotate: 2 * time.Millisecond,
		MediaRateMbps: 647, TableIDR: "55",
	}
	IBM73LZX = Model{
		Name: "IBM 73LZX", RPM: 10000,
		AvgSeek: 4900 * time.Microsecond, AvgRotate: 3 * time.Millisecond,
		MediaRateMbps: 424, TableIDR: "53",
	}
	WD2500JD = Model{
		Name: "WD 2500JD", RPM: 7200,
		AvgSeek: 8900 * time.Microsecond, AvgRotate: 4200 * time.Microsecond,
		MediaRateMbps: 748, TableIDR: "93.5",
	}
	IBM40GNX = Model{
		Name: "IBM 40GNX", RPM: 5400,
		AvgSeek: 12 * time.Millisecond, AvgRotate: 5500 * time.Microsecond,
		MediaRateMbps: 200, TableIDR: "25",
	}
	HitachiDK23DA = Model{
		Name: "Hitachi DK23DA", RPM: 4200,
		AvgSeek: 13 * time.Millisecond, AvgRotate: 7100 * time.Microsecond,
		MediaRateMbps: 278, TableIDR: "~ 34.7",
	}
)

// TableI returns the five drives in the paper's column order (fastest RPM
// first).
func TableI() []Model {
	return []Model{IBM36Z15, IBM73LZX, WD2500JD, IBM40GNX, HitachiDK23DA}
}

// TransferTime returns Δt_transfer for reading n bytes at the media rate:
// n·8 bits / (rate·10^3 bits per ms), per the paper's 512-byte sector
// examples.
func (m Model) TransferTime(nBytes int) time.Duration {
	if nBytes <= 0 || m.MediaRateMbps <= 0 {
		return 0
	}
	ms := float64(nBytes) * 8 / (m.MediaRateMbps * 1e3)
	return time.Duration(ms * float64(time.Millisecond))
}

// LookupLatency returns the average look-up latency for one nBytes-sized
// read: seek + rotate + transfer.
func (m Model) LookupLatency(nBytes int) time.Duration {
	return m.AvgSeek + m.AvgRotate + m.TransferTime(nBytes)
}

// String formats the model like a Table I column header.
func (m Model) String() string {
	return fmt.Sprintf("%s (%d RPM)", m.Name, m.RPM)
}

// Backend is the byte store behind a simulated disk: the latency model
// stays SimDisk's job while the bytes may live in memory (the historical
// behaviour) or in a persistent store (internal/store.Store serves a
// prover daemon through exactly this seam). Implementations must be safe
// for concurrent ReadAt calls; a backend that additionally implements
// io.WriterAt supports Corrupt.
type Backend interface {
	io.ReaderAt
	// Size returns the stored byte count.
	Size() int64
}

// memBackend is the in-memory Backend wrapping a private byte slice.
type memBackend struct {
	mu sync.RWMutex
	b  []byte
}

func (m *memBackend) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off < 0 || off > int64(len(m.b)) {
		return 0, fmt.Errorf("disk: read offset %d outside store of %d bytes", off, len(m.b))
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memBackend) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return 0, fmt.Errorf("disk: write [%d, %d) outside store of %d bytes", off, off+int64(len(p)), len(m.b))
	}
	return copy(m.b[off:], p), nil
}

func (m *memBackend) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.b))
}

// SimDisk is a simulated storage device: a Backend whose reads cost
// LookupLatency plus optional uniform jitter. It substitutes for the
// physical drives in the paper's data-centre scenarios. All methods are
// safe for concurrent use: one disk may serve many prover connections at
// once, and only the latency bookkeeping serialises — data reads run
// concurrently against the backend (pread-per-shard for a store-backed
// disk).
type SimDisk struct {
	model   Model
	backend Backend

	mu     sync.Mutex
	jitter time.Duration
	rng    *rand.Rand
}

// NewSimDisk creates a simulated disk holding data (the slice is copied).
// jitter, when positive, adds a uniform [0, jitter) term to every read.
func NewSimDisk(model Model, data []byte, jitter time.Duration, seed int64) *SimDisk {
	buf := make([]byte, len(data))
	copy(buf, data)
	return NewSimDiskOn(model, &memBackend{b: buf}, jitter, seed)
}

// NewSimDiskOn creates a simulated disk whose bytes are served by an
// arbitrary backend — the seam that lets a cloud.Site (and therefore a
// prover daemon) serve audits from a persistent on-disk store while
// keeping the paper's parametric latency model.
func NewSimDiskOn(model Model, backend Backend, jitter time.Duration, seed int64) *SimDisk {
	return &SimDisk{
		model:   model,
		backend: backend,
		jitter:  jitter,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Size returns the stored byte count.
func (d *SimDisk) Size() int { return int(d.backend.Size()) }

// ReadAt returns length bytes from offset together with the simulated
// look-up latency for the access. Latency bookkeeping takes the disk's
// lock; the data read itself runs concurrently against the backend.
func (d *SimDisk) ReadAt(offset, length int) ([]byte, time.Duration, error) {
	size := d.backend.Size()
	if offset < 0 || length < 0 || int64(offset)+int64(length) > size {
		return nil, 0, fmt.Errorf("disk: read [%d, %d) outside store of %d bytes", offset, offset+length, size)
	}
	d.mu.Lock()
	lat := d.model.LookupLatency(length)
	if d.jitter > 0 {
		lat += time.Duration(d.rng.Int63n(int64(d.jitter)))
	}
	d.mu.Unlock()
	out := make([]byte, length)
	if length > 0 {
		if _, err := d.backend.ReadAt(out, int64(offset)); err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("disk: backend read: %w", err)
		}
	}
	return out, lat, nil
}

// Corrupt overwrites length bytes at offset with pseudorandom garbage,
// modelling adversarial or accidental damage. It returns an error when
// the range is out of bounds or the backend is read-only (does not
// implement io.WriterAt).
func (d *SimDisk) Corrupt(offset, length int) error {
	w, ok := d.backend.(io.WriterAt)
	if !ok {
		return fmt.Errorf("disk: backend %T is read-only", d.backend)
	}
	size := d.backend.Size()
	if offset < 0 || length < 0 || int64(offset)+int64(length) > size {
		return fmt.Errorf("disk: corrupt [%d, %d) outside store of %d bytes", offset, offset+length, size)
	}
	garbage := make([]byte, length)
	d.mu.Lock()
	d.rng.Read(garbage)
	d.mu.Unlock()
	if _, err := w.WriteAt(garbage, int64(offset)); err != nil {
		return fmt.Errorf("disk: backend corrupt: %w", err)
	}
	return nil
}
