package crypt

import (
	"crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestAESNIMissingFrom pins the tag kernel's feature decision, a pure
// function of CPUID leaf 1 ECX: the AES bit says yes whatever else is
// set, and its absence says no and names it.
func TestAESNIMissingFrom(t *testing.T) {
	for _, c := range []struct {
		name string
		ecx1 uint32
		want string
	}{
		{"AES only", cpuidAES, ""},
		{"all bits", ^uint32(0), ""},
		{"all but AES", ^uint32(cpuidAES), "AES-NI"},
		{"none", 0, "AES-NI"},
	} {
		if got := aesniMissingFrom(c.ecx1); got != c.want {
			t.Errorf("%s: aesniMissingFrom(%#x) = %q, want %q", c.name, c.ecx1, got, c.want)
		}
	}
	if aesniMissing != detectAESNI() {
		t.Fatalf("aesniMissing %q differs from a fresh detection %q", aesniMissing, detectAESNI())
	}
	t.Logf("this host: tag kernel missing %q", aesniMissing)
}

// skipWithoutAESNI skips a test of the kernel's assembly on a host that
// cannot run it, saying what the host lacks.
func skipWithoutAESNI(t *testing.T) {
	t.Helper()
	if aesniMissing != "" {
		t.Skipf("host lacks %s", aesniMissing)
	}
}

// TestExpandKey128FIPS197 pins the AESKEYGENASSIST key schedule to the
// AES-128 expansion of FIPS-197 Appendix A.1, words w[0]..w[43].
func TestExpandKey128FIPS197(t *testing.T) {
	skipWithoutAESNI(t)
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

// TestKernelMatchesCryptoAES is the kernel's differential test against
// crypto/aes: for random keys, cbcmac8 with no blocks to absorb is eight
// AES-128 encryptions, and with n blocks it is n further CBC steps per
// lane, over lanes stride bytes apart at strides on and off the block
// size.
func TestKernelMatchesCryptoAES(t *testing.T) {
	skipWithoutAESNI(t)
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		var key [16]byte
		rng.Read(key[:])
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var rk [176]byte
		expandKey128(&key, &rk)
		n, stride := rng.Intn(6), 16*rng.Intn(6)+rng.Intn(40)
		if stride < 16*n {
			stride = 16 * n
		}
		src := make([]byte, (kernelLanes-1)*stride+16*n+1)
		rng.Read(src)
		var x, want [kernelLanes][16]byte
		for l := range x {
			rng.Read(x[l][:])
			want[l] = x[l]
			block.Encrypt(want[l][:], want[l][:])
			for j := 0; j < n; j++ {
				xor16(&want[l], src[l*stride+16*j:])
				block.Encrypt(want[l][:], want[l][:])
			}
		}
		cbcmac8(&rk, &x, &src[0], stride, n)
		if x != want {
			t.Fatalf("trial %d (key %x, n=%d, stride=%d): kernel %x, crypto/aes %x", trial, key, n, stride, x, want)
		}
	}
}
