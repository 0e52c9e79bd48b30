package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/merkle"
)

func TestDeriveKeysDistinctAndDeterministic(t *testing.T) {
	master := []byte("master-secret")
	a := DeriveKeys(master, "file-1")
	b := DeriveKeys(master, "file-1")
	c := DeriveKeys(master, "file-2")

	if !bytes.Equal(a.Enc, b.Enc) || !bytes.Equal(a.MAC, b.MAC) {
		t.Fatal("derivation not deterministic")
	}
	sub := [][]byte{a.Enc, a.MAC, a.PRP}
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

// TestDeriveKeyMatchesDeriveKeys: the single-label derivation and the
// three-key set are the same bytes, and those bytes are the ones every
// stored file was prepared under.
func TestDeriveKeyMatchesDeriveKeys(t *testing.T) {
	master := []byte("golden-master")
	set := DeriveKeys(master, "file-7")
	for _, c := range []struct {
		label string
		got   []byte
		want  string
	}{
		{LabelEnc, set.Enc, "f542df78b6057ee972c6c2e9508517aa28ccbbd3f799caf519586f6c6d2eaa8c"},
		{LabelMAC, set.MAC, "5ce8b14e4f3ad36e457e768d52eb27ba5f9c85488878bebafe20699de5e466bd"},
		{LabelPRP, set.PRP, "daa300c6b4db84695f007cdf9dcb123376d3a46f72be1dfd5ca79d1b3915b935"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Fatalf("DeriveKeys %s = %s, want %s", c.label, got, c.want)
		}
		if one := DeriveKey(master, c.label, "file-7"); !bytes.Equal(one, c.got) {
			t.Fatalf("DeriveKey(%s) = %x, DeriveKeys gave %x", c.label, one, c.got)
		}
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

	if err := EncryptCTRAt(key, "fid", data, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(data, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	if err := EncryptCTRAt(key, "fid", data, 0); err != nil {
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
	_ = EncryptCTRAt(key, "file-a", a, 0)
	_ = EncryptCTRAt(key, "file-b", b, 0)
	if bytes.Equal(a, b) {
		t.Fatal("different file IDs produced the same keystream")
	}
}

func TestEncryptCTRBadKey(t *testing.T) {
	if err := EncryptCTRAt([]byte("short"), "fid", []byte("x"), 0); !errors.Is(err, ErrBadKeyLen) {
		t.Fatalf("got %v, want ErrBadKeyLen", err)
	}
}

func TestTaggerWidths(t *testing.T) {
	for _, bits := range []int{8, 20, 32, 64, 127, MaxTagBits} {
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
	for _, bits := range []int{0, 7, MaxTagBits + 1, 256, -8} {
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

// TestSignVerify: a transcript signature verifies only under its own key,
// over its own message, in its own domain and with every byte intact; a
// key of the wrong length is refused, never a panic; a key read back from
// its hex form verifies what its signer signed. Signing is
// deterministic, so the same key and message give the same signature.
func TestSignVerify(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("audit transcript")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != 64 {
		t.Fatalf("signature is %d bytes, want Ed25519's 64", len(sig))
	}
	if again, _ := s.Sign(msg); !bytes.Equal(again, sig) {
		t.Fatalf("same key and message signed twice: %x, then %x", sig, again)
	}
	root := merkle.LeafHash([]byte("root"))
	rootSig, err := s.SignBatchRoot(root)
	if err != nil {
		t.Fatal(err)
	}
	plainRootSig, err := s.Sign(root[:])
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsePublicKey(s.Public().String())
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		name   string
		verify func() error
		want   error
	}
	transcript := func(pub PublicKey, msg, sig []byte) func() error {
		return func() error { return Verify(pub, msg, sig) }
	}
	rows := []row{
		{"valid", transcript(s.Public(), msg, sig), nil},
		{"valid under the key parsed from its hex form", transcript(parsed, msg, sig), nil},
		{"valid batch root", func() error { return VerifyBatchRoot(s.Public(), root, rootSig) }, nil},
		{"wrong key", transcript(other.Public(), msg, sig), ErrBadSignature},
		{"tampered message", transcript(s.Public(), []byte("tampered"), sig), ErrBadSignature},
		{"truncated signature", transcript(s.Public(), msg, sig[:len(sig)-1]), ErrBadSignature},
		{"extended signature", transcript(s.Public(), msg, append(bytes.Clone(sig), 0)), ErrBadSignature},
		{"nil signature", transcript(s.Public(), msg, nil), ErrBadSignature},
		{"batch root as transcript", transcript(s.Public(), root[:], rootSig), ErrBadSignature},
		{"transcript as batch root", func() error { return VerifyBatchRoot(s.Public(), root, plainRootSig) }, ErrBadSignature},
		{"nil key", transcript(nil, msg, sig), ErrBadPublicKey},
		{"P-256-length key", transcript(make(PublicKey, 33), msg, sig), ErrBadPublicKey},
	}
	for i := range sig {
		flipped := bytes.Clone(sig)
		flipped[i] ^= 1 << (i % 8)
		rows = append(rows, row{fmt.Sprintf("bit %d of byte %d flipped", i%8, i), transcript(s.Public(), msg, flipped), ErrBadSignature})
	}
	for _, r := range rows {
		if err := r.verify(); !errors.Is(err, r.want) {
			t.Errorf("%s: got %v, want %v", r.name, err, r.want)
		}
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

// TestChallengeIndicesGoldenVectors pins the derived challenge sets: the
// verifier and the TPA both derive them and the scenario trace hashes
// depend on them, so the counter stream, the four-indices-per-block
// slicing and the rejection rule may not drift. n = k takes every
// rejection-sampling collision the stream can produce.
func TestChallengeIndicesGoldenVectors(t *testing.T) {
	for _, c := range []struct {
		key, nonce string
		n          uint64
		k          int
		want       []uint64
	}{
		{"golden-chal-key", "nonce-0", 1 << 20, 20, []uint64{
			0x2565c, 0xd0ca6, 0xf7ec4, 0x9222f, 0x32d75, 0x1e33b, 0xbaf13, 0xa9c06, 0x860b1, 0x31d08,
			0xd4b8d, 0x4852f, 0x65951, 0xae91, 0xa22d1, 0xe7a3f, 0x8d6d6, 0xc145e, 0x9d27a, 0x494fb}},
		{"\x00\x01\x02\x03", "geoproof/indices", 3449, 24, []uint64{
			0xa75, 0x115, 0x462, 0x6a4, 0xced, 0x846, 0x22e, 0x9b8, 0xd6e, 0x373, 0x5c9, 0x4fa,
			0x6cd, 0x3e, 0x261, 0x7ff, 0xd4a, 0xd08, 0x850, 0x85d, 0x976, 0x2a3, 0x1e3, 0x398}},
		{"k", "n", 16, 16, []uint64{
			0x3, 0xb, 0x4, 0x9, 0xc, 0x1, 0x5, 0xe, 0x7, 0xa, 0xf, 0x0, 0x6, 0xd, 0x8, 0x2}},
	} {
		got, err := ChallengeIndices([]byte(c.key), []byte(c.nonce), c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("n=%d k=%d: %d indices, want %d", c.n, c.k, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("n=%d k=%d: index %d is %#x, want %#x", c.n, c.k, i, got[i], c.want[i])
			}
		}
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
		if err := EncryptCTRAt(key, "f", whole, 0); err != nil {
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

// TestEncryptCTRAtMatchesStdlibCTR pins EncryptCTRAt's seek — counter
// advanced by offset/16, offset%16 keystream bytes discarded — against one
// sequential crypto/cipher CTR pass over the same derived IV, including
// arbitrary (unaligned) starting offsets: the contract the streaming POR
// pipeline relies on when it encrypts chunk shards whose byte offsets are
// not multiples of the AES block size.
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
		if err := EncryptCTRAt(key, "f", whole, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, want) {
			t.Fatalf("keyLen=%d: whole-buffer EncryptCTRAt differs from stdlib CTR", keyLen)
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

// referenceCMAC is AES-CMAC written straight from RFC 4493 §2.3–2.4, one
// allocation per step and no sharing with the Tagger's code: the
// reference the lane-interleaved core is tested against.
func referenceCMAC(t *testing.T, key, msg []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	double := func(in []byte) []byte {
		out := make([]byte, 16)
		for i := 0; i < 16; i++ {
			out[i] = in[i] << 1
			if i < 15 {
				out[i] |= in[i+1] >> 7
			}
		}
		if in[0]&0x80 != 0 {
			out[15] ^= 0x87
		}
		return out
	}
	xor := func(dst, src []byte) {
		for i := range src {
			dst[i] ^= src[i]
		}
	}
	l := make([]byte, 16)
	block.Encrypt(l, l)
	k1 := double(l)
	k2 := double(k1)

	n := (len(msg) + 15) / 16
	complete := n > 0 && len(msg)%16 == 0
	if n == 0 {
		n = 1
	}
	last := make([]byte, 16)
	tail := copy(last, msg[(n-1)*16:])
	if complete {
		xor(last, k1)
	} else {
		last[tail] = 0x80
		xor(last, k2)
	}
	x := make([]byte, 16)
	for i := 0; i < n-1; i++ {
		xor(x, msg[i*16:(i+1)*16])
		block.Encrypt(x, x)
	}
	xor(x, last)
	block.Encrypt(x, x)
	return x
}

// TestCMACMatchesRFC4493 pins the CMAC core — and the test file's own
// reference — to the four AES-128 examples of RFC 4493 §4.
func TestCMACMatchesRFC4493(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	key := unhex("2b7e151628aed2a6abf7158809cf4f3c")
	msg := unhex("6bc1bee22e409f96e93d7e117393172a" + "ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" + "f69f2445df4f9b17ad2b417be66c3710")
	c, err := newCMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.k1[:], unhex("fbeed618357133667c85e08f7236a8de"); !bytes.Equal(got, want) {
		t.Fatalf("K1=%x, want %x", got, want)
	}
	if got, want := c.k2[:], unhex("f7ddac306ae266ccf90bc11ee46d513b"); !bytes.Equal(got, want) {
		t.Fatalf("K2=%x, want %x", got, want)
	}
	for _, v := range []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	} {
		x := make([][aes.BlockSize]byte, 1)
		c.sum(x, msg[:v.n], 0, v.n)
		if !bytes.Equal(x[0][:], unhex(v.want)) {
			t.Errorf("len %d: core CMAC=%x, want %s", v.n, x[0], v.want)
		}
		if got := referenceCMAC(t, key, msg[:v.n]); !bytes.Equal(got, unhex(v.want)) {
			t.Errorf("len %d: reference CMAC=%x, want %s", v.n, got, v.want)
		}
	}
}

// referenceTag is the tag construction spelt out over referenceCMAC: the
// first bits bits of CMAC_K(index ‖ SHA-256(fileID)[:8] ‖ segment), K the
// first 16 bytes of SHA-256("geoproof/tag/" ‖ key).
func referenceTag(t *testing.T, key []byte, bits int, seg []byte, index uint64, fileID string) []byte {
	t.Helper()
	kd := sha256.Sum256(append([]byte("geoproof/tag/"), key...))
	fid := sha256.Sum256([]byte(fileID))
	msg := binary.BigEndian.AppendUint64(nil, index)
	msg = append(msg, fid[:8]...)
	msg = append(msg, seg...)
	tag := referenceCMAC(t, kd[:16], msg)[:(bits+7)/8]
	if rem := bits % 8; rem != 0 {
		tag[len(tag)-1] &= byte(0xFF << (8 - rem))
	}
	return tag
}

// TestTaggerMatchesReferenceCMAC is the differential test of the Tagger
// against the straight-line construction above: key lengths from empty to
// beyond a SHA-256 block, every tag width from 8 to 128 bits, every
// segment length from 0 to 97 bytes (whole blocks, ragged tails and the
// empty segment, whose header block is also the final one), and file IDs
// that include the empty string, which a fresh scratch must not mistake
// for one it has already hashed.
func TestTaggerMatchesReferenceCMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, keyLen := range []int{0, 1, 16, 32, 65, 200} {
		key := make([]byte, keyLen)
		rng.Read(key)
		for bits := 8; bits <= MaxTagBits; bits++ {
			tg, err := NewTagger(key, bits)
			if err != nil {
				t.Fatal(err)
			}
			for segLen := 0; segLen <= 97; segLen++ {
				if (segLen+bits+keyLen)%7 != 0 { // a seventh of the grid, every row and column hit
					continue
				}
				seg := make([]byte, segLen)
				rng.Read(seg)
				index := rng.Uint64()
				fileID := ""
				if rng.Intn(4) > 0 {
					fileID = fmt.Sprintf("file-%d", rng.Intn(1000))
				}
				want := referenceTag(t, key, bits, seg, index, fileID)

				if got := tg.Tag(seg, index, fileID); !bytes.Equal(got, want) {
					t.Fatalf("keyLen=%d bits=%d segLen=%d: Tag=%x, reference=%x", keyLen, bits, segLen, got, want)
				}
				if !tg.VerifyTag(seg, index, fileID, want) {
					t.Fatalf("keyLen=%d bits=%d segLen=%d: reference tag rejected", keyLen, bits, segLen)
				}
				// AppendTag stamps the same bytes behind whatever dst
				// holds — here the segment itself.
				stamped := tg.AppendTag(append(make([]byte, 0, len(seg)+len(want)), seg...), seg, index, fileID)
				if !bytes.Equal(stamped[:len(seg)], seg) || !bytes.Equal(stamped[len(seg):], want) {
					t.Fatalf("keyLen=%d bits=%d segLen=%d: AppendTag=%x, reference=%x", keyLen, bits, segLen, stamped[len(seg):], want)
				}
			}
		}
	}
}

// TestSlabFormsMatchSingleForm: on every slab path, TagSlab must stamp,
// and VerifySlab accept, exactly the tag Tag computes for every segment of
// a run, for run lengths 0 to 33 (no lane group, partial ones, one and two
// sixteen-segment groups, and every tail behind them), 64 and 1000, from a
// random first segment and from one that wraps past 2⁶⁴ − 1 inside the
// run, at payload lengths on and off the AES block size and byte-aligned
// and ragged tag widths; and VerifySlab must flag exactly the segments
// whose payload or tag changed.
func TestSlabFormsMatchSingleForm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	runs := []int{64, 1000}
	for run := 33; run >= 0; run-- {
		runs = append([]int{run}, runs...)
	}
	for _, bits := range []int{8, 20, 64, MaxTagBits} {
		for _, path := range taggerPaths(t, []byte("slab-key"), bits) {
			tg := path.tg
			for _, payload := range []int{0, 1, 15, 16, 17, 80, 97} {
				stride := payload + tg.Size()
				for _, run := range runs {
					for _, first := range []uint64{rng.Uint64() >> 1, -uint64(1 + rng.Intn(run+1))} {
						where := fmt.Sprintf("%s: bits=%d payload=%d run=%d first=%#x", path.name, bits, payload, run, first)
						slab := make([]byte, run*stride)
						rng.Read(slab)
						tg.TagSlab(slab, payload, first, "fid")
						for i := 0; i < run; i++ {
							seg := slab[i*stride : (i+1)*stride]
							if want := tg.Tag(seg[:payload], first+uint64(i), "fid"); !bytes.Equal(seg[payload:], want) {
								t.Fatalf("%s: TagSlab stamped %x on segment %d, Tag gives %x", where, seg[payload:], i, want)
							}
						}
						bad := make([]bool, run)
						tg.VerifySlab(slab, payload, first, "fid", bad)
						for i, b := range bad {
							if b {
								t.Fatalf("%s: VerifySlab rejects freshly stamped segment %d", where, i)
							}
						}
						if bits < 20 {
							continue // a damaged segment keeps an 8-bit tag one time in 256
						}
						// Damage a random subset: a payload bit where there is
						// a payload, else a tag bit that survives truncation.
						want := make([]bool, run)
						for i := range want {
							if want[i] = rng.Intn(2) == 0; want[i] {
								slab[i*stride+rng.Intn(stride-tg.Size()+1)] ^= 0x80
							}
						}
						tg.VerifySlab(slab, payload, first, "fid", bad)
						for i := range want {
							if bad[i] != want[i] {
								t.Fatalf("%s: VerifySlab bad[%d]=%v, damaged=%v", where, i, bad[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestAppendTagAllocatesNothing: stamping a tag into the slot behind a
// segment's payload and checking one, a segment or a slab at a time — what
// the setup pipeline, the extractor and the TPA do once per segment — must
// not touch the heap, on either slab path.
func TestAppendTagAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, path := range taggerPaths(t, []byte("alloc-key"), 20) {
		tg := path.tg
		const payload, run = 80, 33 // two sixteen-segment groups and a tail
		stride := payload + tg.Size()
		slab := make([]byte, run*stride)
		seg := slab[:stride]
		bad := make([]bool, run)
		tg.AppendTag(seg[:payload], seg[:payload], 0, "file-id") // warm the scratch pool
		for name, fn := range map[string]func(){
			"AppendTag":  func() { tg.AppendTag(seg[:payload], seg[:payload], 7, "file-id") },
			"VerifyTag":  func() { tg.VerifyTag(seg[:payload], 7, "file-id", seg[payload:]) },
			"TagSlab":    func() { tg.TagSlab(slab, payload, 7, "file-id") },
			"VerifySlab": func() { tg.VerifySlab(slab, payload, 7, "file-id", bad) },
		} {
			if n := testing.AllocsPerRun(100, fn); n != 0 {
				t.Errorf("%s: %s allocates %v times per call, want 0", path.name, name, n)
			}
		}
		if want := tg.Tag(seg[:payload], 7, "file-id"); !bytes.Equal(seg[payload:], want) {
			t.Fatalf("%s: in-place stamp %x, Tag %x", path.name, seg[payload:], want)
		}
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
