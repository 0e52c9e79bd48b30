package crypt

import (
	"crypto/aes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// Errors reported by this package.
var (
	ErrBadTagBits   = errors.New("crypt: tag width must be in [8, 256] bits")
	ErrBadSignature = errors.New("crypt: signature verification failed")
	ErrBadKeyLen    = errors.New("crypt: AES key must be 16, 24 or 32 bytes")
)

// KeySet holds the independent subkeys used by the POR setup pipeline, all
// derived from one master key so a client only stores a single secret.
type KeySet struct {
	Enc  []byte // AES-256 file encryption key (step 3)
	MAC  []byte // segment tag key K' (step 5)
	PRP  []byte // block permutation key (step 4)
	Chal []byte // challenge index derivation key
}

// DeriveKeys expands a master secret into the POR subkeys using an
// HKDF-style HMAC-SHA256 expansion bound to the file ID, so per-file keys
// are independent.
func DeriveKeys(master []byte, fileID string) KeySet {
	expand := func(label string) []byte {
		mac := hmac.New(sha256.New, master)
		mac.Write([]byte("geoproof/v1/"))
		mac.Write([]byte(label))
		mac.Write([]byte{0})
		mac.Write([]byte(fileID))
		return mac.Sum(nil)
	}
	return KeySet{
		Enc:  expand("enc"),
		MAC:  expand("mac"),
		PRP:  expand("prp"),
		Chal: expand("chal"),
	}
}

// NewMasterKey samples a fresh 32-byte master key from crypto/rand.
func NewMasterKey() ([]byte, error) {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("sample master key: %w", err)
	}
	return key, nil
}

// EncryptCTR encrypts (or, being a stream cipher, decrypts) data in place
// with AES-CTR. The 16-byte IV is derived deterministically from the key
// and fileID; each (key, fileID) pair must encrypt only one plaintext,
// which the POR setup flow guarantees because DeriveKeys binds the key to
// the file ID.
func EncryptCTR(key []byte, fileID string, data []byte) error {
	return EncryptCTRAt(key, fileID, data, 0)
}

// ErrBadOffset reports a negative keystream offset.
var ErrBadOffset = errors.New("crypt: CTR offset must be non-negative")

// EncryptCTRAt applies the same keystream as EncryptCTR but starting at
// an arbitrary non-negative byte position offset of the logical
// plaintext. Processing shard data[lo:hi] with offset lo for every shard
// of a buffer yields bytes identical to one EncryptCTR pass over the
// whole buffer — the property both the parallel POR pipeline (AES-block
// aligned shards) and the streaming chunk pipeline (chunk-sized shards,
// not necessarily 16-byte aligned for custom geometries) rely on.
//
// The keystream is generated through the EncryptBlocks batching shim —
// counter blocks are assembled in bulk and encrypted back to back — and
// is bit-identical to cipher.NewCTR over the derived IV (pinned by
// TestEncryptCTRAtMatchesStdlibCTR).
func EncryptCTRAt(key []byte, fileID string, data []byte, offset int64) error {
	switch len(key) {
	case 16, 24, 32:
	default:
		return fmt.Errorf("%w: %d", ErrBadKeyLen, len(key))
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("new cipher: %w", err)
	}
	ivFull := sha256.Sum256([]byte("geoproof/iv/" + fileID))
	iv := ivFull[:aes.BlockSize]
	addToCounter(iv, uint64(offset)/aes.BlockSize)
	ctrXOR(block, iv, data, int(offset%aes.BlockSize))
	return nil
}

// addToCounter adds n to a big-endian counter in place, with carry,
// mirroring how cipher.NewCTR advances its counter block.
func addToCounter(ctr []byte, n uint64) {
	for i := len(ctr) - 1; i >= 0 && n > 0; i-- {
		sum := uint64(ctr[i]) + n&0xFF
		ctr[i] = byte(sum)
		n = n>>8 + sum>>8
	}
}

// Tagger computes truncated HMAC-SHA256 segment tags
// τ_i = MAC_K'(S_i, i, fid) as in §V-A step 5. Tags are truncated to Bits
// bits; the paper's example uses 20-bit tags, relying on the large number
// of verified tags per audit for cumulative soundness.
//
// The POR pipeline tags (and the TPA verifies) one MAC per segment over
// the whole file, so the Tagger precomputes the HMAC inner and outer
// digest states once at construction and restores snapshots per call
// instead of rebuilding hmac.New(sha256.New, key): that removes both the
// two key-block SHA-256 compressions HMAC spends per call re-absorbing
// the padded key and the allocation churn of a fresh HMAC and two
// digests per segment. A sync.Pool of scratch digests keeps it safe for
// concurrent use; output is bit-identical to the plain HMAC formulation
// (pinned by TestTaggerMatchesPlainHMAC).
type Tagger struct {
	key          []byte
	bits         int
	inner, outer []byte // marshaled SHA-256 states after absorbing ipad / opad
	pool         sync.Pool
}

type tagScratch struct {
	inner, outer hash.Hash
	idx          [8]byte
	fid          []byte // fileID bytes, reused across calls
	isum         [sha256.Size]byte
	osum         [sha256.Size]byte
}

// NewTagger builds a Tagger producing bits-wide tags.
func NewTagger(key []byte, bits int) (*Tagger, error) {
	if bits < 8 || bits > 256 {
		return nil, fmt.Errorf("%w: %d", ErrBadTagBits, bits)
	}
	k := make([]byte, len(key))
	copy(k, key)
	const blockSize = 64 // SHA-256 block size, per RFC 2104
	hk := k
	if len(hk) > blockSize {
		sum := sha256.Sum256(hk)
		hk = sum[:]
	}
	var pad [blockSize]byte
	marshal := func(x byte) ([]byte, error) {
		for i := range pad {
			pad[i] = x
		}
		for i, b := range hk {
			pad[i] ^= b
		}
		h := sha256.New()
		h.Write(pad[:])
		return h.(encoding.BinaryMarshaler).MarshalBinary()
	}
	inner, err := marshal(0x36)
	if err != nil {
		return nil, fmt.Errorf("crypt: marshal sha256 state: %w", err)
	}
	outer, err := marshal(0x5c)
	if err != nil {
		return nil, fmt.Errorf("crypt: marshal sha256 state: %w", err)
	}
	t := &Tagger{key: k, bits: bits, inner: inner, outer: outer}
	t.pool.New = func() any {
		return &tagScratch{inner: sha256.New(), outer: sha256.New()}
	}
	return t, nil
}

// Bits returns the tag width in bits.
func (t *Tagger) Bits() int { return t.bits }

// Size returns the serialised tag size in bytes, ⌈bits/8⌉.
func (t *Tagger) Size() int { return (t.bits + 7) / 8 }

// sum computes the full (untruncated) HMAC into s.osum.
func (t *Tagger) sum(s *tagScratch, segment []byte, index uint64, fileID string) {
	if err := s.inner.(encoding.BinaryUnmarshaler).UnmarshalBinary(t.inner); err != nil {
		panic(fmt.Sprintf("crypt: restore sha256 state: %v", err))
	}
	s.inner.Write(segment)
	binary.BigEndian.PutUint64(s.idx[:], index)
	s.inner.Write(s.idx[:])
	// Through a reused buffer: io.WriteString on a digest converts the
	// string to a fresh []byte on every call.
	s.fid = append(s.fid[:0], fileID...)
	s.inner.Write(s.fid)
	isum := s.inner.Sum(s.isum[:0])
	if err := s.outer.(encoding.BinaryUnmarshaler).UnmarshalBinary(t.outer); err != nil {
		panic(fmt.Sprintf("crypt: restore sha256 state: %v", err))
	}
	s.outer.Write(isum)
	s.outer.Sum(s.osum[:0])
}

// truncate writes the first Bits bits of the full MAC into out,
// zero-padding the trailing partial byte.
func (t *Tagger) truncate(out []byte, full *[sha256.Size]byte) {
	copy(out, full[:t.Size()])
	if rem := t.bits % 8; rem != 0 {
		out[len(out)-1] &= byte(0xFF << (8 - rem))
	}
}

// Tag computes the truncated MAC for a segment: the first Bits bits of
// HMAC-SHA256(key, segment ‖ index ‖ fileID), zero-padded to whole bytes.
func (t *Tagger) Tag(segment []byte, index uint64, fileID string) []byte {
	return t.AppendTag(make([]byte, 0, t.Size()), segment, index, fileID)
}

// AppendTag appends the segment's truncated MAC (Size bytes, as Tag
// computes it) to dst and returns the extended slice. With room in dst it
// allocates nothing, which is what the setup pipeline's per-segment
// stamping loops need: dst is the segment's own payload slice, whose
// spare capacity is the tag slot that follows it.
func (t *Tagger) AppendTag(dst, segment []byte, index uint64, fileID string) []byte {
	s := t.pool.Get().(*tagScratch)
	t.sum(s, segment, index, fileID)
	var tag [sha256.Size]byte
	t.truncate(tag[:t.Size()], &s.osum)
	t.pool.Put(s)
	return append(dst, tag[:t.Size()]...)
}

// VerifyTag reports whether tag matches the segment in constant time. It
// allocates nothing, which matters to the TPA's thousand-tag audit
// verdicts as much as to the extractor's whole-file verify pass.
func (t *Tagger) VerifyTag(segment []byte, index uint64, fileID string, tag []byte) bool {
	s := t.pool.Get().(*tagScratch)
	t.sum(s, segment, index, fileID)
	var want [sha256.Size]byte
	t.truncate(want[:t.Size()], &s.osum)
	t.pool.Put(s)
	return hmac.Equal(want[:t.Size()], tag)
}

// ForgeryProbability returns the per-segment probability that a random tag
// verifies, 2^-bits — the quantity traded against storage overhead when
// choosing the tag width.
func (t *Tagger) ForgeryProbability() float64 {
	p := 1.0
	for i := 0; i < t.bits; i++ {
		p /= 2
	}
	return p
}

// Signer wraps an ECDSA P-256 private key used by the verifier device to
// sign audit transcripts (§V-B: Sign_SK(R)).
type Signer struct {
	priv *ecdsa.PrivateKey
}

// NewSigner generates a fresh P-256 signing key.
func NewSigner() (*Signer, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate signing key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// Public returns the verification key.
func (s *Signer) Public() *ecdsa.PublicKey { return &s.priv.PublicKey }

// Sign signs the SHA-256 digest of msg and returns an ASN.1 signature.
func (s *Signer) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, s.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sign transcript: %w", err)
	}
	return sig, nil
}

// Verify checks sig over msg under pub.
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return ErrBadSignature
	}
	return nil
}

// ChallengeIndices derives k pseudorandom distinct segment indices in
// [0, n) from the challenge key and a nonce, using rejection sampling over
// an HMAC-SHA256 counter stream. It reproduces the verifier's random
// challenge set c = {c_1..c_k} ⊆ {1..n} (§V-B) deterministically for a
// given (key, nonce), which lets the TPA re-derive and cross-check the
// challenged set.
func ChallengeIndices(key, nonce []byte, n uint64, k int) ([]uint64, error) {
	if n == 0 || k < 0 || uint64(k) > n {
		return nil, fmt.Errorf("crypt: cannot pick %d distinct indices from %d", k, n)
	}
	out := make([]uint64, 0, k)
	seen := make(map[uint64]bool, k)
	var ctr uint64
	for len(out) < k {
		mac := hmac.New(sha256.New, key)
		mac.Write(nonce)
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], ctr)
		mac.Write(c[:])
		sum := mac.Sum(nil)
		ctr++
		for off := 0; off+8 <= len(sum) && len(out) < k; off += 8 {
			v := binary.BigEndian.Uint64(sum[off:]) % n
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		if ctr > uint64(k)*64+1024 {
			return nil, errors.New("crypt: challenge derivation did not converge")
		}
	}
	return out, nil
}
