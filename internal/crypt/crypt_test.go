package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeriveKeysDistinctAndDeterministic(t *testing.T) {
	master := []byte("master-secret")
	a := DeriveKeys(master, "file-1")
	b := DeriveKeys(master, "file-1")
	c := DeriveKeys(master, "file-2")

	if !bytes.Equal(a.Enc, b.Enc) || !bytes.Equal(a.MAC, b.MAC) {
		t.Fatal("derivation not deterministic")
	}
	sub := [][]byte{a.Enc, a.MAC, a.PRP, a.Chal}
	for i := range sub {
		for j := i + 1; j < len(sub); j++ {
			if bytes.Equal(sub[i], sub[j]) {
				t.Fatalf("subkeys %d and %d collide", i, j)
			}
		}
	}
	if bytes.Equal(a.Enc, c.Enc) {
		t.Fatal("different files share encryption keys")
	}
}

func TestNewMasterKey(t *testing.T) {
	k1, err := NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != 32 || bytes.Equal(k1, k2) {
		t.Fatal("master keys must be 32 random bytes")
	}
}

func TestEncryptCTRRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	plain := []byte("the quick brown fox jumps over the lazy dog")
	data := make([]byte, len(plain))
	copy(data, plain)

	if err := EncryptCTR(key, "fid", data); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(data, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	if err := EncryptCTR(key, "fid", data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, plain) {
		t.Fatal("decrypt round trip failed")
	}
}

func TestEncryptCTRDifferentFileIDs(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	a := make([]byte, 32)
	b := make([]byte, 32)
	_ = EncryptCTR(key, "file-a", a)
	_ = EncryptCTR(key, "file-b", b)
	if bytes.Equal(a, b) {
		t.Fatal("different file IDs produced the same keystream")
	}
}

func TestEncryptCTRBadKey(t *testing.T) {
	if err := EncryptCTR([]byte("short"), "fid", []byte("x")); !errors.Is(err, ErrBadKeyLen) {
		t.Fatalf("got %v, want ErrBadKeyLen", err)
	}
}

func TestTaggerWidths(t *testing.T) {
	for _, bits := range []int{8, 20, 32, 64, 160, 256} {
		tg, err := NewTagger([]byte("k"), bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		tag := tg.Tag([]byte("segment"), 3, "fid")
		if len(tag) != (bits+7)/8 {
			t.Fatalf("bits=%d: tag is %d bytes", bits, len(tag))
		}
		if !tg.VerifyTag([]byte("segment"), 3, "fid", tag) {
			t.Fatalf("bits=%d: fresh tag fails verification", bits)
		}
	}
}

func TestTaggerRejectsBadWidths(t *testing.T) {
	for _, bits := range []int{0, 7, 257, -8} {
		if _, err := NewTagger([]byte("k"), bits); !errors.Is(err, ErrBadTagBits) {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
}

func TestTagPaddingBitsZero(t *testing.T) {
	tg, _ := NewTagger([]byte("k"), 20)
	for i := uint64(0); i < 50; i++ {
		tag := tg.Tag([]byte("seg"), i, "fid")
		if tag[2]&0x0F != 0 {
			t.Fatalf("20-bit tag has non-zero padding bits: %x", tag)
		}
	}
}

func TestTagBindsAllInputs(t *testing.T) {
	tg, _ := NewTagger([]byte("k"), 64)
	base := tg.Tag([]byte("seg"), 1, "fid")
	if tg.VerifyTag([]byte("seX"), 1, "fid", base) {
		t.Fatal("tag ignores segment content")
	}
	if tg.VerifyTag([]byte("seg"), 2, "fid", base) {
		t.Fatal("tag ignores index")
	}
	if tg.VerifyTag([]byte("seg"), 1, "other", base) {
		t.Fatal("tag ignores file ID")
	}
	tg2, _ := NewTagger([]byte("k2"), 64)
	if tg2.VerifyTag([]byte("seg"), 1, "fid", base) {
		t.Fatal("tag ignores key")
	}
}

func TestForgeryProbability(t *testing.T) {
	tg, _ := NewTagger([]byte("k"), 20)
	want := 1.0 / (1 << 20)
	if got := tg.ForgeryProbability(); got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSignVerify(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("audit transcript")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := Verify(s.Public(), []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatal("tampered message accepted")
	}
	other, _ := NewSigner()
	if err := Verify(other.Public(), msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatal("wrong key accepted")
	}
}

func TestChallengeIndicesDistinctAndInRange(t *testing.T) {
	idx, err := ChallengeIndices([]byte("k"), []byte("nonce"), 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 100 {
		t.Fatalf("got %d indices", len(idx))
	}
	seen := make(map[uint64]bool)
	for _, v := range idx {
		if v >= 1000 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
}

func TestChallengeIndicesDeterministicPerNonce(t *testing.T) {
	a, _ := ChallengeIndices([]byte("k"), []byte("n1"), 500, 50)
	b, _ := ChallengeIndices([]byte("k"), []byte("n1"), 500, 50)
	c, _ := ChallengeIndices([]byte("k"), []byte("n2"), 500, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same nonce gave different challenges")
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different nonces gave identical challenges")
	}
}

func TestChallengeIndicesFullDomain(t *testing.T) {
	idx, err := ChallengeIndices([]byte("k"), []byte("n"), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, v := range idx {
		seen[v] = true
	}
	if len(seen) != 64 {
		t.Fatalf("full-domain draw covered %d of 64", len(seen))
	}
}

func TestChallengeIndicesBadArgs(t *testing.T) {
	if _, err := ChallengeIndices([]byte("k"), []byte("n"), 0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ChallengeIndices([]byte("k"), []byte("n"), 10, 11); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := ChallengeIndices([]byte("k"), []byte("n"), 10, -1); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestTagDeterministicProperty(t *testing.T) {
	tg, _ := NewTagger([]byte("prop-key"), 32)
	f := func(seg []byte, idx uint64) bool {
		a := tg.Tag(seg, idx, "fid")
		b := tg.Tag(seg, idx, "fid")
		return bytes.Equal(a, b) && tg.VerifyTag(seg, idx, "fid", a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptCTRAtMatchesWholeBuffer(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{16, 160, 4096, 16 * 1000} {
		plain := make([]byte, n)
		rng.Read(plain)
		whole := append([]byte(nil), plain...)
		if err := EncryptCTR(key, "f", whole); err != nil {
			t.Fatal(err)
		}
		// Re-encrypt the same plaintext in irregular block-aligned shards.
		sharded := append([]byte(nil), plain...)
		for lo := 0; lo < n; {
			hi := lo + 16*(1+rng.Intn(8))
			if hi > n {
				hi = n
			}
			if err := EncryptCTRAt(key, "f", sharded[lo:hi], int64(lo)); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if !bytes.Equal(whole, sharded) {
			t.Fatalf("n=%d: sharded CTR differs from whole-buffer CTR", n)
		}
	}
}

func TestEncryptCTRAtRejectsNegativeOffsets(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 16)
	buf := make([]byte, 32)
	for _, off := range []int64{-1, -16} {
		if err := EncryptCTRAt(key, "f", buf, off); !errors.Is(err, ErrBadOffset) {
			t.Fatalf("offset %d: got %v, want ErrBadOffset", off, err)
		}
	}
}

// TestEncryptCTRAtMatchesStdlibCTR pins the EncryptBlocks-based keystream
// generator bit-identical to crypto/cipher's CTR stream over the same
// derived IV, including arbitrary (unaligned) starting offsets — the
// contract the streaming POR pipeline relies on when it encrypts chunk
// shards whose byte offsets are not multiples of the AES block size.
func TestEncryptCTRAtMatchesStdlibCTR(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, keyLen := range []int{16, 24, 32} {
		key := make([]byte, keyLen)
		rng.Read(key)
		plain := make([]byte, 5000)
		rng.Read(plain)

		// Reference: one stdlib CTR pass over the whole buffer.
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ivFull := sha256.Sum256([]byte("geoproof/iv/f"))
		want := append([]byte(nil), plain...)
		cipher.NewCTR(block, ivFull[:aes.BlockSize]).XORKeyStream(want, want)

		// Whole-buffer equivalence.
		whole := append([]byte(nil), plain...)
		if err := EncryptCTR(key, "f", whole); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, want) {
			t.Fatalf("keyLen=%d: EncryptCTR differs from stdlib CTR", keyLen)
		}

		// Random unaligned shards, including offsets mod 16 != 0.
		sharded := append([]byte(nil), plain...)
		for lo := 0; lo < len(plain); {
			hi := lo + 1 + rng.Intn(100)
			if hi > len(plain) {
				hi = len(plain)
			}
			if err := EncryptCTRAt(key, "f", sharded[lo:hi], int64(lo)); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if !bytes.Equal(sharded, want) {
			t.Fatalf("keyLen=%d: unaligned sharded CTR differs from stdlib CTR", keyLen)
		}
	}
}

// TestTaggerMatchesPlainHMAC pins the precomputed-state Tagger
// bit-identical to the straightforward hmac.New-per-call formulation
// across key lengths (shorter than, equal to and beyond the SHA-256
// block size), tag widths and inputs.
func TestTaggerMatchesPlainHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, keyLen := range []int{0, 1, 16, 32, 63, 64, 65, 200} {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, bits := range []int{8, 20, 32, 255, 256} {
			tg, err := NewTagger(key, bits)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				seg := make([]byte, rng.Intn(200))
				rng.Read(seg)
				index := rng.Uint64()
				fileID := fmt.Sprintf("file-%d", rng.Intn(1000))

				mac := hmac.New(sha256.New, key)
				mac.Write(seg)
				var idx [8]byte
				binary.BigEndian.PutUint64(idx[:], index)
				mac.Write(idx[:])
				mac.Write([]byte(fileID))
				full := mac.Sum(nil)
				want := make([]byte, (bits+7)/8)
				copy(want, full[:len(want)])
				if rem := bits % 8; rem != 0 {
					want[len(want)-1] &= byte(0xFF << (8 - rem))
				}

				got := tg.Tag(seg, index, fileID)
				if !bytes.Equal(got, want) {
					t.Fatalf("keyLen=%d bits=%d: Tag=%x, reference=%x", keyLen, bits, got, want)
				}
				if !tg.VerifyTag(seg, index, fileID, want) {
					t.Fatalf("keyLen=%d bits=%d: reference tag rejected", keyLen, bits)
				}
				// AppendTag stamps the same bytes behind whatever dst
				// holds — here the segment itself, the way the setup
				// pipeline fills a segment's tag slot.
				stamped := tg.AppendTag(append(make([]byte, 0, len(seg)+len(want)), seg...), seg, index, fileID)
				if !bytes.Equal(stamped[:len(seg)], seg) || !bytes.Equal(stamped[len(seg):], want) {
					t.Fatalf("keyLen=%d bits=%d: AppendTag=%x, reference=%x", keyLen, bits, stamped[len(seg):], want)
				}
			}
		}
	}
}

// TestAppendTagAllocatesNothing: stamping a tag into the slot behind a
// segment's payload, as the setup pipeline does once per segment, must
// not touch the heap.
func TestAppendTagAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tg, err := NewTagger([]byte("alloc-key"), 20)
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, 80+tg.Size())
	tg.AppendTag(seg[:80], seg[:80], 0, "file-id") // warm the scratch pool
	if n := testing.AllocsPerRun(100, func() { tg.AppendTag(seg[:80], seg[:80], 7, "file-id") }); n != 0 {
		t.Fatalf("AppendTag allocates %v times per call, want 0", n)
	}
	if want := tg.Tag(seg[:80], 7, "file-id"); !bytes.Equal(seg[80:], want) {
		t.Fatalf("in-place stamp %x, Tag %x", seg[80:], want)
	}
}

func TestEncryptBlocksMatchesPerBlockEncrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	key := make([]byte, 16)
	rng.Read(key)
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 37*16)
	rng.Read(src)
	dst := make([]byte, len(src))
	EncryptBlocks(block, dst, src)
	want := make([]byte, 16)
	for off := 0; off < len(src); off += 16 {
		block.Encrypt(want, src[off:off+16])
		if !bytes.Equal(dst[off:off+16], want) {
			t.Fatalf("block at %d differs", off)
		}
	}
	// In-place operation must match as well.
	inPlace := append([]byte(nil), src...)
	EncryptBlocks(block, inPlace, inPlace)
	if !bytes.Equal(inPlace, dst) {
		t.Fatal("in-place EncryptBlocks differs from out-of-place")
	}
}

func TestAddToCounterCarries(t *testing.T) {
	ctr := []byte{0x00, 0x00, 0xFF, 0xFF}
	addToCounter(ctr, 1)
	if !bytes.Equal(ctr, []byte{0x00, 0x01, 0x00, 0x00}) {
		t.Fatalf("carry failed: % x", ctr)
	}
	ctr = []byte{0xFF, 0xFF, 0xFF, 0xFF}
	addToCounter(ctr, 1)
	if !bytes.Equal(ctr, []byte{0x00, 0x00, 0x00, 0x00}) {
		t.Fatalf("wraparound failed: % x", ctr)
	}
	ctr = []byte{0x00, 0x00, 0x00, 0x00}
	addToCounter(ctr, 0x01020304)
	if !bytes.Equal(ctr, []byte{0x01, 0x02, 0x03, 0x04}) {
		t.Fatalf("multi-byte add failed: % x", ctr)
	}
}
