package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Errors reported by this package.
var (
	ErrBadTagBits   = errors.New("crypt: tag width must be in [8, 128] bits")
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

// Subkey labels: the names DeriveKey binds into each derivation.
const (
	LabelEnc  = "enc"
	LabelMAC  = "mac"
	LabelPRP  = "prp"
	LabelChal = "chal"
)

// DeriveKey expands a master secret into the one subkey named by label,
// using an HKDF-style HMAC-SHA256 expansion bound to the file ID, so
// per-file keys are independent. Callers that need a single subkey (the
// TPA's tag check needs only LabelMAC) pay for one HMAC, not four.
func DeriveKey(master []byte, label, fileID string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("geoproof/v1/"))
	mac.Write([]byte(label))
	mac.Write([]byte{0})
	mac.Write([]byte(fileID))
	return mac.Sum(nil)
}

// DeriveKeys expands a master secret into all four POR subkeys.
func DeriveKeys(master []byte, fileID string) KeySet {
	return KeySet{
		Enc:  DeriveKey(master, LabelEnc, fileID),
		MAC:  DeriveKey(master, LabelMAC, fileID),
		PRP:  DeriveKey(master, LabelPRP, fileID),
		Chal: DeriveKey(master, LabelChal, fileID),
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
// The stream is cipher.NewCTR seeked by hand: the counter starts at
// IV + offset/16 and the first offset%16 keystream bytes are thrown away
// (TestEncryptCTRAtMatchesStdlibCTR pins the seek against one sequential
// pass). The standard library's AES-CTR generates several blocks per
// assembly call, which no loop over cipher.Block.Encrypt can.
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
	stream := cipher.NewCTR(block, iv)
	if skip := offset % aes.BlockSize; skip > 0 {
		var head [aes.BlockSize]byte
		stream.XORKeyStream(head[:skip], head[:skip])
	}
	stream.XORKeyStream(data, data)
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

// MaxTagBits is the widest tag a Tagger can produce: the whole AES-CMAC
// output. blockfile.Params.Validate rejects layouts that ask for more.
const MaxTagBits = 8 * aes.BlockSize

// cmac is AES-CMAC (NIST SP 800-38B, RFC 4493) under one key: the block
// cipher and the two subkeys that mask the final block.
type cmac struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
}

func newCMAC(key []byte) (*cmac, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	c := &cmac{block: block}
	block.Encrypt(c.k1[:], c.k1[:]) // L = AES_K(0¹²⁸)
	dbl(&c.k1)
	c.k2 = c.k1
	dbl(&c.k2)
	return c, nil
}

// dbl multiplies b by x in GF(2¹²⁸) modulo x¹²⁸ + x⁷ + x² + x + 1: a left
// shift by one bit, with 0x87 folded into the low byte when a bit falls
// off the top (constant time — the subkeys are secret).
func dbl(b *[aes.BlockSize]byte) {
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	carry := hi >> 63
	binary.BigEndian.PutUint64(b[:8], hi<<1|lo>>63)
	binary.BigEndian.PutUint64(b[8:], lo<<1^carry*0x87)
}

// xor16 sets x ^= y[:16].
func xor16(x *[aes.BlockSize]byte, y []byte) {
	_ = y[aes.BlockSize-1]
	binary.LittleEndian.PutUint64(x[:8], binary.LittleEndian.Uint64(x[:8])^binary.LittleEndian.Uint64(y))
	binary.LittleEndian.PutUint64(x[8:], binary.LittleEndian.Uint64(x[8:])^binary.LittleEndian.Uint64(y[8:]))
}

// tagLanes is how many segments the slab forms carry through the CBC
// chain side by side. One segment's blocks are a dependency chain — each
// Encrypt waits for the one before — so a lone chain leaves the AES unit
// mostly idle; four independent chains overlap in it.
const tagLanes = 4

// sum finishes lanes ≤ tagLanes CMACs at once. On entry x[l] holds lane
// l's chain state with everything before msg absorbed; lane l's msg is
// the n bytes at slab[l*stride:], and includes the message's final block,
// so n may be 0 only for a message that is empty altogether. On return
// x[l] is lane l's MAC. Every lane's message has the same length, which
// is what lets the lanes walk the chain in step.
//
// x lives on the heap with its owner: cipher.Block is an interface, so a
// stack array handed to Encrypt escapes and costs an allocation a call.
// Each step writes every lane's block before it encrypts any: Encrypt
// loads the block as one 16-byte word, which the two 8-byte stores just
// made cannot forward to, and a lane encrypted straight after its own
// stores waits for them to retire (measured: twice the time per segment).
func (c *cmac) sum(x *[tagLanes][aes.BlockSize]byte, lanes int, slab []byte, stride, n int) {
	body := 0 // bytes ahead of the final block
	if n > aes.BlockSize {
		body = (n - 1) / aes.BlockSize * aes.BlockSize
	}
	for off := 0; off < body; off += aes.BlockSize {
		for l := 0; l < lanes; l++ {
			xor16(&x[l], slab[l*stride+off:])
		}
		for l := 0; l < lanes; l++ {
			c.block.Encrypt(x[l][:], x[l][:])
		}
	}
	for l := 0; l < lanes; l++ {
		last := slab[l*stride+body : l*stride+n]
		if len(last) == aes.BlockSize {
			xor16(&x[l], last)
			xor16(&x[l], c.k1[:])
			continue
		}
		for i, b := range last {
			x[l][i] ^= b
		}
		x[l][len(last)] ^= 0x80
		xor16(&x[l], c.k2[:])
	}
	for l := 0; l < lanes; l++ {
		c.block.Encrypt(x[l][:], x[l][:])
	}
}

// Tagger computes the segment tags τ_i = MAC_K'(S_i, i, fid) of §V-A
// step 5 as truncated AES-CMAC: τ_i is the first Bits bits of
// CMAC_K(H_i ‖ S_i), where K is an AES-128 key derived from the tag key
// and the header block H_i is the segment index (8 bytes, big-endian)
// followed by the first 8 bytes of SHA-256(fileID). The paper's example
// uses 20-bit tags, relying on the large number of verified tags per
// audit for cumulative soundness.
//
// A default segment (five 16-byte blocks) costs seven AES blocks: H_i, the
// five, and none for padding, as CMAC's subkeys cover any segment length
// without one. The POR pipeline tags, and the extractor verifies, runs of
// whole segments; TagSlab and VerifySlab take such a run and carry four
// segments through the chain at once. Scratch is pooled, so every form
// but Tag allocates nothing, and a Tagger is safe for concurrent use.
type Tagger struct {
	mac  *cmac
	bits int
	pool sync.Pool // of *tagScratch
}

type tagScratch struct {
	x [tagLanes][aes.BlockSize]byte
	// The file ID half of the header block, for the last file ID seen (if
	// seen is set): the API takes the ID on every call, one file's worth of
	// calls in a row.
	seen   bool
	fileID string
	fidSum [8]byte
}

// NewTagger builds a Tagger producing bits-wide tags under key, which may
// have any length.
func NewTagger(key []byte, bits int) (*Tagger, error) {
	if bits < 8 || bits > MaxTagBits {
		return nil, fmt.Errorf("%w: %d", ErrBadTagBits, bits)
	}
	kd := sha256.Sum256(append([]byte("geoproof/tag/"), key...))
	mac, err := newCMAC(kd[:16])
	if err != nil {
		return nil, fmt.Errorf("crypt: tag cipher: %w", err)
	}
	t := &Tagger{mac: mac, bits: bits}
	t.pool.New = func() any { return new(tagScratch) }
	return t, nil
}

// Bits returns the tag width in bits.
func (t *Tagger) Bits() int { return t.bits }

// Size returns the serialised tag size in bytes, ⌈bits/8⌉.
func (t *Tagger) Size() int { return (t.bits + 7) / 8 }

// scratch checks a scratch out of the pool with fileID's header half in
// place.
func (t *Tagger) scratch(fileID string) *tagScratch {
	s := t.pool.Get().(*tagScratch)
	if !s.seen || s.fileID != fileID {
		sum := sha256.Sum256([]byte(fileID))
		s.seen, s.fileID = true, fileID
		copy(s.fidSum[:], sum[:])
	}
	return s
}

// tags computes the tags of lanes ≤ tagLanes consecutive segments, the
// first of them segment index of the file: lane l's payload is the n
// bytes at slab[l*stride:]. It leaves lane l's tag, truncated and
// zero-padded to whole bytes, in s.x[l][:t.Size()].
func (t *Tagger) tags(s *tagScratch, lanes int, slab []byte, stride, n int, index uint64) {
	for l := 0; l < lanes; l++ {
		binary.BigEndian.PutUint64(s.x[l][:8], index+uint64(l))
		copy(s.x[l][8:], s.fidSum[:])
	}
	for l := 0; l < lanes; l++ {
		if n == 0 { // the header is the whole message, so its final block
			xor16(&s.x[l], t.mac.k1[:])
		}
		t.mac.block.Encrypt(s.x[l][:], s.x[l][:])
	}
	if n > 0 {
		t.mac.sum(&s.x, lanes, slab, stride, n)
	}
	if rem := t.bits % 8; rem != 0 {
		for l := 0; l < lanes; l++ {
			s.x[l][t.Size()-1] &= byte(0xFF << (8 - rem))
		}
	}
}

// Tag computes the truncated MAC for a segment, zero-padded to whole
// bytes.
func (t *Tagger) Tag(segment []byte, index uint64, fileID string) []byte {
	return t.AppendTag(make([]byte, 0, t.Size()), segment, index, fileID)
}

// AppendTag appends the segment's truncated MAC (Size bytes, as Tag
// computes it) to dst and returns the extended slice. With room in dst it
// allocates nothing.
func (t *Tagger) AppendTag(dst, segment []byte, index uint64, fileID string) []byte {
	s := t.scratch(fileID)
	t.tags(s, 1, segment, 0, len(segment), index)
	dst = append(dst, s.x[0][:t.Size()]...)
	t.pool.Put(s)
	return dst
}

// VerifyTag reports whether tag matches the segment in constant time. It
// allocates nothing, which matters to the TPA's thousand-tag audit
// verdicts.
func (t *Tagger) VerifyTag(segment []byte, index uint64, fileID string, tag []byte) bool {
	s := t.scratch(fileID)
	t.tags(s, 1, segment, 0, len(segment), index)
	ok := subtle.ConstantTimeCompare(s.x[0][:t.Size()], tag) == 1
	t.pool.Put(s)
	return ok
}

// eachTag walks slab, a run of whole stored segments — payload bytes of
// data followed by a Size-byte tag slot — the first of which is segment
// first of the file, tagLanes segments at a time, and hands do every
// segment's position in the run, its tag slot and the tag it should hold.
func (t *Tagger) eachTag(slab []byte, payload int, first uint64, fileID string, do func(i int, slot, tag []byte)) {
	stride := payload + t.Size()
	if len(slab)%stride != 0 {
		panic(fmt.Sprintf("crypt: slab of %d bytes is not a run of %d-byte segments", len(slab), stride))
	}
	s := t.scratch(fileID)
	for i, n := 0, len(slab)/stride; i < n; i += tagLanes {
		lanes := min(tagLanes, n-i)
		t.tags(s, lanes, slab[i*stride:], stride, payload, first+uint64(i))
		for l := 0; l < lanes; l++ {
			do(i+l, slab[(i+l)*stride+payload:(i+l+1)*stride], s.x[l][:t.Size()])
		}
	}
	t.pool.Put(s)
}

// TagSlab stamps every segment of slab (a run as eachTag describes) with
// its tag: the setup pipeline's form of AppendTag. It allocates nothing.
func (t *Tagger) TagSlab(slab []byte, payload int, first uint64, fileID string) {
	t.eachTag(slab, payload, first, fileID, func(_ int, slot, tag []byte) { copy(slot, tag) })
}

// VerifySlab checks every segment of slab (a run as eachTag describes)
// against the tag stored behind it, in constant time per tag, and sets
// bad[i] for each segment i of the run that fails; bad holds an entry per
// segment. It is the extractor's form of VerifyTag and allocates nothing.
func (t *Tagger) VerifySlab(slab []byte, payload int, first uint64, fileID string, bad []bool) {
	t.eachTag(slab, payload, first, fileID, func(i int, slot, tag []byte) {
		if subtle.ConstantTimeCompare(slot, tag) != 1 {
			bad[i] = true
		}
	})
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
	// One keyed HMAC for the whole stream: Reset rewinds it to the keyed
	// state, so a counter block reuses the pads instead of rebuilding (and
	// reallocating) them.
	mac := hmac.New(sha256.New, key)
	var c [8]byte
	var block [sha256.Size]byte
	var ctr uint64
	for len(out) < k {
		mac.Reset()
		mac.Write(nonce)
		binary.BigEndian.PutUint64(c[:], ctr)
		mac.Write(c[:])
		sum := mac.Sum(block[:0])
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
