package crypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cpu"
)

// TestVAESMissingFrom pins the kernels' feature decision, a pure function
// of CPUID leaves 0, 1 and 7 and XCR0: everything present says yes, and
// each feature taken away alone says no and names it.
func TestVAESMissingFrom(t *testing.T) {
	const ecx1 = cpuidAES | cpuidAVX | cpu.OSXSAVE
	for _, c := range []struct {
		name             string
		maxLeaf          uint32
		ecx1, ebx7, ecx7 uint32
		xcr0             uint64
		want             string
	}{
		{"all present", 7, ecx1, cpuidAVX2, cpuidVAES, cpu.XCR0YMM, ""},
		{"all bits", ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint64(0), ""},
		{"no AES-NI", 7, ecx1 &^ cpuidAES, cpuidAVX2, cpuidVAES, cpu.XCR0YMM, "AES-NI"},
		{"no AVX", 7, ecx1 &^ cpuidAVX, cpuidAVX2, cpuidVAES, cpu.XCR0YMM, "AVX"},
		{"no OSXSAVE", 7, ecx1 &^ cpu.OSXSAVE, cpuidAVX2, cpuidVAES, cpu.XCR0YMM, "OSXSAVE"},
		{"XCR0 without YMM state", 7, ecx1, cpuidAVX2, cpuidVAES, 0x3, "YMM state in XCR0"},
		{"XCR0 without SSE state", 7, ecx1, cpuidAVX2, cpuidVAES, 0x5, "YMM state in XCR0"},
		{"no leaf 7", 6, ecx1, cpuidAVX2, cpuidVAES, cpu.XCR0YMM, "CPUID leaf 7"},
		{"no AVX2", 7, ecx1, ^uint32(cpuidAVX2), cpuidVAES, cpu.XCR0YMM, "AVX2"},
		{"no VAES", 7, ecx1, cpuidAVX2, ^uint32(cpuidVAES), cpu.XCR0YMM, "VAES"},
		{"AES-NI only, as before VAES", 7, cpuidAES, 0, 0, 0x3, "AVX"},
	} {
		if got := vaesMissingFrom(c.maxLeaf, c.ecx1, c.ebx7, c.ecx7, c.xcr0); got != c.want {
			t.Errorf("%s: vaesMissingFrom = %q, want %q", c.name, got, c.want)
		}
	}
	if vaesMissing != detectVAES() {
		t.Fatalf("vaesMissing %q differs from a fresh detection %q", vaesMissing, detectVAES())
	}
	t.Logf("this host: VAES kernels missing %q", vaesMissing)
}

// skipWithoutVAES skips a test of the kernels' assembly on a host that
// cannot run it, saying what the host lacks.
func skipWithoutVAES(t *testing.T) {
	t.Helper()
	if vaesMissing != "" {
		t.Skipf("host lacks %s", vaesMissing)
	}
}

// TestExpandKey128FIPS197 pins the AESKEYGENASSIST key schedule to the
// AES-128 expansion of FIPS-197 Appendix A.1, words w[0]..w[43].
func TestExpandKey128FIPS197(t *testing.T) {
	skipWithoutVAES(t)
	var key [16]byte
	hex.Decode(key[:], []byte("2b7e151628aed2a6abf7158809cf4f3c"))
	const want = "2b7e151628aed2a6abf7158809cf4f3c" +
		"a0fafe1788542cb123a339392a6c7605" +
		"f2c295f27a96b9435935807a7359f67f" +
		"3d80477d4716fe3e1e237e446d7a883b" +
		"ef44a541a8525b7fb671253bdb0bad00" +
		"d4d1c6f87c839d87caf2b8bc11f915bc" +
		"6d88a37a110b3efddbf98641ca0093fd" +
		"4e54f70e5f5fc9f384a64fb24ea6dc4f" +
		"ead27321b58dbad2312bf5607f8d292f" +
		"ac7766f319fadc2128d12941575c006e" +
		"d014f9a8c9ee2589e13f0cc8b6630ca6"
	var rk [176]byte
	expandKey128(&key, &rk)
	if got := hex.EncodeToString(rk[:]); got != want {
		t.Fatalf("round keys\n%s\nwant\n%s", got, want)
	}
}

// TestExpandKey256FIPS197 pins the AES-256 schedule the CTR kernel runs
// under to the expansion of FIPS-197 Appendix A.3, words w[0]..w[59].
func TestExpandKey256FIPS197(t *testing.T) {
	skipWithoutVAES(t)
	var key [32]byte
	hex.Decode(key[:], []byte("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"))
	const want = "603deb1015ca71be2b73aef0857d7781" +
		"1f352c073b6108d72d9810a30914dff4" +
		"9ba354118e6925afa51a8b5f2067fcde" +
		"a8b09c1a93d194cdbe49846eb75d5b9a" +
		"d59aecb85bf3c917fee94248de8ebe96" +
		"b5a9328a2678a647983122292f6c79b3" +
		"812c81addadf48ba24360af2fab8b464" +
		"98c5bfc9bebd198e268c3ba709e04214" +
		"68007bacb2df331696e939e46c518d80" +
		"c814e20476a9fb8a5025c02d59c58239" +
		"de1369676ccc5a71fa2563959674ee15" +
		"5886ca5d2e2f31d77e0af1fa27cf73c3" +
		"749c47ab18501ddae2757e4f7401905a" +
		"cafaaae3e4d59b349adf6acebd10190d" +
		"fe4890d1e6188d0b046df344706c631e"
	var rk [240]byte
	expandKey256(&key, &rk)
	if got := hex.EncodeToString(rk[:]); got != want {
		t.Fatalf("round keys\n%s\nwant\n%s", got, want)
	}
}

// TestTagArgsLayout pins tagArgs to the offsets kernel_amd64.s reads it
// at (its A_* constants).
func TestTagArgsLayout(t *testing.T) {
	var a tagArgs
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"rk", unsafe.Offsetof(a.rk), 0},
		{"hdr", unsafe.Offsetof(a.hdr), 352},
		{"fin", unsafe.Offsetof(a.fin), 384},
		{"shuf", unsafe.Offsetof(a.shuf), 416},
		{"trunc", unsafe.Offsetof(a.trunc), 448},
		{"tags", unsafe.Offsetof(a.tags), 480},
		{"index", unsafe.Offsetof(a.index), 736},
		{"stride", unsafe.Offsetof(a.stride), 744},
		{"blocks", unsafe.Offsetof(a.blocks), 752},
		{"finOff", unsafe.Offsetof(a.finOff), 760},
		{"slot", unsafe.Offsetof(a.slot), 768},
		{"width", unsafe.Offsetof(a.width), 776},
		{"tail", unsafe.Offsetof(a.tail), 784},
	} {
		if f.got != f.want {
			t.Errorf("tagArgs.%s at offset %d, the kernel reads it at %d", f.name, f.got, f.want)
		}
	}
}

// TestKernelMatchesCryptoAES is the fused kernel's differential test
// against crypto/aes: under random AES-128 keys, every tag TagSlab stamps
// and every verdict VerifySlab gives on the kernel equals the
// straight-line RFC 4493 reference (referenceCMAC, built on crypto/aes)
// of the segment's header block and payload, truncated. It covers every
// payload length 0..97 — empty, short, whole-block and ragged final
// blocks, so K1, K2 and the empty message all go through the kernel —
// every tag size 1..16 bytes, and runs on and off the sixteen-segment
// group, from indexes that wrap past 2⁶⁴ − 1 inside a group. (A run of
// payloads under 16 bytes leaves its last group to the portable path, so
// every run here is longer than one group.)
func TestKernelMatchesCryptoAES(t *testing.T) {
	skipWithoutVAES(t)
	rng := rand.New(rand.NewSource(27))
	runs := []int{17, 31, 32, 33, 47, 48}
	for payload := 0; payload <= 97; payload++ {
		var key [16]byte
		rng.Read(key[:])
		size := 1 + payload%16
		bits := 8*size - rng.Intn(8)
		c, err := newCMAC(key[:])
		if err != nil {
			t.Fatal(err)
		}
		tg := &Tagger{mac: c, bits: bits, kernel: true}
		tg.setKernelKey(&key)
		tg.pool.New = func() any { return new(tagScratch) }
		stride := payload + size
		run := runs[payload%len(runs)]
		first := -uint64(1 + rng.Intn(2*kernelLanes))
		slab := make([]byte, run*stride)
		rng.Read(slab)
		fidSum := sha256.Sum256([]byte("kernel-file"))
		tg.TagSlab(slab, payload, first, "kernel-file")
		for i := 0; i < run; i++ {
			var hdr [16]byte
			binary.BigEndian.PutUint64(hdr[:8], first+uint64(i))
			copy(hdr[8:], fidSum[:8])
			want := referenceCMAC(t, key[:], append(hdr[:], slab[i*stride:i*stride+payload]...))[:size]
			if rem := bits % 8; rem != 0 {
				want[size-1] &= byte(0xFF << (8 - rem))
			}
			if got := slab[i*stride+payload : (i+1)*stride]; !bytes.Equal(got, want) {
				t.Fatalf("payload %d, %d-bit tags, run %d: segment %d (index %#x) tag %x, crypto/aes %x", payload, bits, run, i, first+uint64(i), got, want)
			}
		}
		bad := make([]bool, run)
		damaged, bit := rng.Intn(run), rng.Intn(bits) // a bit the tag keeps
		slab[damaged*stride+payload+bit/8] ^= 0x80 >> (bit % 8)
		tg.VerifySlab(slab, payload, first, "kernel-file", bad)
		for i, b := range bad {
			if b != (i == damaged) {
				t.Fatalf("payload %d, %d-bit tags, run %d: bad[%d]=%v with segment %d damaged", payload, bits, run, i, b, damaged)
			}
		}
	}
}
