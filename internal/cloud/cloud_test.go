package cloud

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/blockfile"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/por"
	"repro/internal/simnet"
)

func brisbaneDC() DataCenter {
	return DataCenter{Name: "bne-1", Position: geo.Brisbane, Disk: disk.WD2500JD}
}

func perthDC() DataCenter {
	return DataCenter{Name: "per-1", Position: geo.Perth, Disk: disk.IBM36Z15}
}

// prepared returns an encoded test file and its owning encoder.
func prepared(t *testing.T) (*por.Encoder, *por.EncodedFile) {
	t.Helper()
	enc := por.NewEncoder([]byte("cloud-test-master"))
	f := bytes.Repeat([]byte("cloud-data-"), 1000)
	ef, err := enc.Encode("file-1", f)
	if err != nil {
		t.Fatal(err)
	}
	return enc, ef
}

// verifySegment checks one segment's tag the way the TPA does.
func verifySegment(t *testing.T, enc *por.Encoder, fileID string, layout blockfile.Layout, i int64, seg []byte) error {
	t.Helper()
	verdicts, err := enc.VerifySegments(fileID, layout, []int64{i}, [][]byte{seg})
	if err != nil {
		t.Fatal(err)
	}
	return verdicts[0]
}

func TestSiteStoreAndRead(t *testing.T) {
	_, ef := prepared(t)
	site := NewSite(brisbaneDC(), 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)

	seg, lat, err := site.ReadSegment(ef.FileID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != ef.Layout.SegmentSize() {
		t.Fatalf("segment %d bytes", len(seg))
	}
	if !bytes.Equal(seg, ef.Data[:len(seg)]) {
		t.Fatal("segment content mismatch")
	}
	want := disk.WD2500JD.LookupLatency(ef.Layout.SegmentSize())
	if lat != want {
		t.Fatalf("lookup %v, want %v", lat, want)
	}
}

func TestSiteErrors(t *testing.T) {
	_, ef := prepared(t)
	site := NewSite(brisbaneDC(), 1)
	if _, _, err := site.ReadSegment("nope", 0); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("missing file: %v", err)
	}
	site.Store(ef.FileID, ef.Layout, ef.Data)
	if _, _, err := site.ReadSegment(ef.FileID, ef.Layout.Segments); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("bad index: %v", err)
	}
	if err := site.Corrupt("nope", 0, 1); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("corrupt missing: %v", err)
	}
	if _, err := site.CorruptRandomSegments("nope", 0.1, 1); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("corrupt random missing: %v", err)
	}
	if _, err := site.Layout("nope"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("layout missing: %v", err)
	}
}

func TestHonestProviderServesVerifiableSegments(t *testing.T) {
	enc, ef := prepared(t)
	site := NewSite(brisbaneDC(), 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	p := &HonestProvider{Site: site}

	seg, _, err := p.FetchSegment(ef.FileID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifySegment(t, enc, ef.FileID, ef.Layout, 3, seg); err != nil {
		t.Fatalf("segment from honest provider fails MAC: %v", err)
	}
}

func TestCorruptRandomSegmentsDetectable(t *testing.T) {
	enc, ef := prepared(t)
	site := NewSite(brisbaneDC(), 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	n, err := site.CorruptRandomSegments(ef.FileID, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != int(ef.Layout.Segments)/2 {
		t.Fatalf("corrupted %d segments", n)
	}
	bad := 0
	for i := int64(0); i < ef.Layout.Segments; i++ {
		seg, _, err := site.ReadSegment(ef.FileID, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifySegment(t, enc, ef.FileID, ef.Layout, i, seg); err != nil {
			bad++
		}
	}
	// Random garbage passes a 20-bit MAC with probability 2^-20; all n
	// corrupted segments should verify as bad.
	if bad != n {
		t.Fatalf("%d segments fail MAC, %d corrupted", bad, n)
	}
}

func TestRelayProviderAddsLatency(t *testing.T) {
	enc, ef := prepared(t)
	remote := NewSite(perthDC(), 2)
	remote.Store(ef.FileID, ef.Layout, ef.Data)

	dist := geo.Brisbane.DistanceKm(geo.Perth)
	relay := NewRelayProvider(brisbaneDC(), remote, simnet.InternetLink{
		DistanceKm: dist,
		LastMile:   simnet.DefaultLastMile,
	}, 3)

	seg, lat, err := relay.FetchSegment(ef.FileID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Content is still genuine — the relay lies about place, not data.
	if err := verifySegment(t, enc, ef.FileID, ef.Layout, 0, seg); err != nil {
		t.Fatalf("relayed segment fails MAC: %v", err)
	}
	// Latency must include the Brisbane-Perth round trip: ≥ 2·dist/(4c/9).
	minRTT := geo.RoundTripTime(dist, geo.SpeedInternetKmPerMs)
	if lat < minRTT {
		t.Fatalf("relay latency %v below physical floor %v", lat, minRTT)
	}
	// And an honest local fetch must be much faster.
	local := NewSite(brisbaneDC(), 4)
	local.Store(ef.FileID, ef.Layout, ef.Data)
	_, honestLat, _ := (&HonestProvider{Site: local}).FetchSegment(ef.FileID, 0)
	if lat < 2*honestLat {
		t.Fatalf("relay (%v) not clearly slower than honest (%v)", lat, honestLat)
	}
}

func TestRelayProviderMissingFile(t *testing.T) {
	remote := NewSite(perthDC(), 2)
	relay := NewRelayProvider(brisbaneDC(), remote, simnet.InternetLink{DistanceKm: 100}, 3)
	if _, _, err := relay.FetchSegment("nope", 0); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("got %v", err)
	}
}

func TestThrottledProvider(t *testing.T) {
	_, ef := prepared(t)
	site := NewSite(brisbaneDC(), 1)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	inner := &HonestProvider{Site: site}
	_, base, _ := inner.FetchSegment(ef.FileID, 0)
	th := &ThrottledProvider{Inner: inner, Extra: 30 * time.Millisecond}
	_, slow, err := th.FetchSegment(ef.FileID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow-base != 30*time.Millisecond {
		t.Fatalf("throttle added %v", slow-base)
	}
}

func TestSLA(t *testing.T) {
	sla := SLA{Center: geo.Brisbane, RadiusKm: 100}
	if !sla.Permits(geo.Brisbane) {
		t.Fatal("center must satisfy SLA")
	}
	if sla.Permits(geo.Perth) {
		t.Fatal("Perth is 3600 km outside a 100 km Brisbane SLA")
	}
}
