package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// ctrPath is one way xorCTRAt can make the keystream.
type ctrPath struct {
	name   string
	kernel bool
}

// ctrPaths returns the CTR paths a key of keyLen bytes runs on here: the
// VAES kernel for a 32-byte key where the host has it, and the standard
// library's stream for every key on every host.
func ctrPaths(t testing.TB, keyLen int) []ctrPath {
	paths := []ctrPath{{"stdlib", false}}
	switch {
	case keyLen != 32:
	case vaesMissing != "":
		t.Logf("VAES CTR kernel not run: host lacks %s", vaesMissing)
	default:
		paths = append(paths, ctrPath{"vaes", true})
	}
	return paths
}

// FuzzEncryptCTRAt checks xorCTRAt on every path against a hand-seeked
// cipher.NewCTR: one stream from the IV itself, offset bytes of it thrown
// away. The seeds cover every offset mod 16, lengths on both sides of the
// kernel's sixteen-block pass and of several passes with a tail, IVs
// whose low 64 bits wrap inside the call (at, before and after a pass
// boundary, with and without a carry into the high word), and 16- and
// 24-byte keys, which take the standard library's stream.
func FuzzEncryptCTRAt(f *testing.F) {
	for off := 0; off < 16; off++ {
		f.Add(uint8(2), uint16(off), uint16(3*ctrPassBytes+off), uint8(0), int64(off))
	}
	for _, n := range []int{0, 1, 15, 16, 17, ctrPassBytes - 1, ctrPassBytes, ctrPassBytes + 1, 2*ctrPassBytes + 100} {
		f.Add(uint8(2), uint16(32), uint16(n), uint8(0), int64(n))
	}
	for _, wrap := range []uint8{1, 2, 15, 16, 17, 33, 255} {
		f.Add(uint8(2), uint16(7), uint16(4*ctrPassBytes+3), wrap, int64(wrap))
	}
	f.Add(uint8(0), uint16(5), uint16(700), uint8(3), int64(100))
	f.Add(uint8(1), uint16(21), uint16(700), uint8(0), int64(101))
	f.Fuzz(func(t *testing.T, keySel uint8, offset, length uint16, wrap uint8, seed int64) {
		keyLen := 16 + 8*int(keySel%3)
		off, n := int64(offset), int(length)%(20*ctrPassBytes)
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, keyLen)
		rng.Read(key)
		var iv [aes.BlockSize]byte
		rng.Read(iv[:])
		if wrap > 0 {
			// The low word reaches 2⁶⁴ − 1 at block wrap of the call.
			binary.BigEndian.PutUint64(iv[8:], -uint64(off/aes.BlockSize)-uint64(wrap))
			if wrap%2 == 0 {
				binary.BigEndian.PutUint64(iv[:8], ^uint64(0)) // and the carry wraps the whole counter
			}
		}
		plain := make([]byte, n)
		rng.Read(plain)

		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, off+int64(n))
		copy(want[off:], plain)
		cipher.NewCTR(block, iv[:]).XORKeyStream(want, want)
		want = want[off:]

		for _, path := range ctrPaths(t, keyLen) {
			got := bytes.Clone(plain)
			if err := xorCTRAt(key, &iv, got, off, path.kernel); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s: %d-byte key, IV %x, offset %d, %d bytes: first difference at byte %d", path.name, keyLen, iv, off, n, i)
			}
		}
	})
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestEncryptCTRSharedAcrossGoroutines: eight goroutines encrypt
// disjoint, unaligned shards of one buffer under one 32-byte key at once,
// on every CTR path the host has, and the buffer equals one sequential
// pass.
func TestEncryptCTRSharedAcrossGoroutines(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 32)
	rng := rand.New(rand.NewSource(28))
	plain := make([]byte, 64<<10+13)
	rng.Read(plain)
	var iv [aes.BlockSize]byte
	rng.Read(iv[:])
	for _, path := range ctrPaths(t, len(key)) {
		want := bytes.Clone(plain)
		if err := xorCTRAt(key, &iv, want, 0, path.kernel); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			got := bytes.Clone(plain)
			cuts := []int{0}
			for w := 1; w < 8; w++ {
				cuts = append(cuts, len(plain)*w/8+rng.Intn(100))
			}
			cuts = append(cuts, len(plain))
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					if err := xorCTRAt(key, &iv, got[lo:hi], int64(lo), path.kernel); err != nil {
						errs <- err
					}
				}(cuts[w], cuts[w+1])
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s, round %d: shards differ from one pass at byte %d (cuts %v)", path.name, round, i, cuts)
			}
		}
	}
}
