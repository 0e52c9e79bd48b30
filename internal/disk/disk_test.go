package disk

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestTableICatalog(t *testing.T) {
	models := TableI()
	if len(models) != 5 {
		t.Fatalf("Table I has %d drives, want 5", len(models))
	}
	wantRPM := []int{15000, 10000, 7200, 5400, 4200}
	for i, m := range models {
		if m.RPM != wantRPM[i] {
			t.Errorf("drive %d RPM = %d, want %d", i, m.RPM, wantRPM[i])
		}
	}
	// Higher RPM must mean lower look-up latency (the paper's Table I
	// observation).
	for i := 1; i < len(models); i++ {
		if models[i-1].LookupLatency(512) >= models[i].LookupLatency(512) {
			t.Errorf("lookup latency not increasing as RPM drops: %v then %v",
				models[i-1].LookupLatency(512), models[i].LookupLatency(512))
		}
	}
}

func TestWD2500JDLatencyMatchesPaper(t *testing.T) {
	// §V-D: Δt_L = 8.9 + 4.2 + 512·8/(748·10³) = 13.1055 ms.
	got := msOf(WD2500JD.LookupLatency(512))
	if math.Abs(got-13.1055) > 0.001 {
		t.Fatalf("WD2500JD lookup = %.4f ms, want 13.1055", got)
	}
}

func TestIBM36Z15LatencyMatchesPaper(t *testing.T) {
	// §V-D: Δt_L = 3.4 + 2 + 512·8/(647·10³) = 5.406 ms (paper rounds).
	got := msOf(IBM36Z15.LookupLatency(512))
	if math.Abs(got-5.406) > 0.001 {
		t.Fatalf("IBM 36Z15 lookup = %.4f ms, want 5.406", got)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	small := WD2500JD.TransferTime(512)
	big := WD2500JD.TransferTime(512 * 16)
	if big <= small {
		t.Fatal("transfer time must grow with read size")
	}
	if WD2500JD.TransferTime(0) != 0 || WD2500JD.TransferTime(-1) != 0 {
		t.Fatal("degenerate sizes should cost 0")
	}
}

func TestModelString(t *testing.T) {
	if got := IBM36Z15.String(); got != "IBM 36Z15 (15000 RPM)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSimDiskReadAt(t *testing.T) {
	data := []byte("0123456789abcdef")
	d := NewSimDisk(WD2500JD, data, 0, 1)
	got, lat, err := d.ReadAt(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("456789")) {
		t.Fatalf("read %q", got)
	}
	want := WD2500JD.LookupLatency(6)
	if lat != want {
		t.Fatalf("latency %v, want %v", lat, want)
	}
}

func TestSimDiskCopiesData(t *testing.T) {
	data := []byte("immutable")
	d := NewSimDisk(WD2500JD, data, 0, 1)
	data[0] = 'X'
	got, _, err := d.ReadAt(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'i' {
		t.Fatal("disk shares caller's buffer")
	}
}

func TestSimDiskBounds(t *testing.T) {
	d := NewSimDisk(WD2500JD, make([]byte, 10), 0, 1)
	for _, tc := range []struct{ off, n int }{{-1, 1}, {0, 11}, {10, 1}, {5, -1}} {
		if _, _, err := d.ReadAt(tc.off, tc.n); err == nil {
			t.Errorf("ReadAt(%d,%d) accepted", tc.off, tc.n)
		}
	}
	if err := d.Corrupt(8, 5); err == nil {
		t.Error("Corrupt out of range accepted")
	}
}

func TestSimDiskJitterBounded(t *testing.T) {
	d := NewSimDisk(IBM36Z15, make([]byte, 512), 2*time.Millisecond, 7)
	base := IBM36Z15.LookupLatency(512)
	for i := 0; i < 200; i++ {
		_, lat, err := d.ReadAt(0, 512)
		if err != nil {
			t.Fatal(err)
		}
		if lat < base || lat >= base+2*time.Millisecond {
			t.Fatalf("jittered latency %v outside [%v, %v)", lat, base, base+2*time.Millisecond)
		}
	}
}

func TestSimDiskCorrupt(t *testing.T) {
	d := NewSimDisk(WD2500JD, bytes.Repeat([]byte{0xAA}, 64), 0, 9)
	if err := d.Corrupt(0, 32); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.ReadAt(0, 64)
	if bytes.Equal(got[:32], bytes.Repeat([]byte{0xAA}, 32)) {
		t.Fatal("corruption left data intact (astronomically unlikely)")
	}
	if !bytes.Equal(got[32:], bytes.Repeat([]byte{0xAA}, 32)) {
		t.Fatal("corruption spilled outside requested range")
	}
}
