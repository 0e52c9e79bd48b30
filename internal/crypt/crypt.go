package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
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
	ErrBadPublicKey = errors.New("crypt: verifier key must be an Ed25519 public key, 64 hex digits")
)

// KeySet holds the independent subkeys used by the POR setup pipeline, all
// derived from one master key so a client only stores a single secret.
type KeySet struct {
	Enc []byte // AES-256 file encryption key (step 3)
	MAC []byte // segment tag key K' (step 5)
	PRP []byte // block permutation key (step 4)
}

// Subkey labels: the names DeriveKey binds into each derivation.
const (
	LabelEnc = "enc"
	LabelMAC = "mac"
	LabelPRP = "prp"
)

// DeriveKey expands a master secret into the one subkey named by label,
// using an HKDF-style HMAC-SHA256 expansion bound to the file ID, so
// per-file keys are independent. Callers that need a single subkey (the
// TPA's tag check needs only LabelMAC) pay for one HMAC, not three.
func DeriveKey(master []byte, label, fileID string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("geoproof/v1/"))
	mac.Write([]byte(label))
	mac.Write([]byte{0})
	mac.Write([]byte(fileID))
	return mac.Sum(nil)
}

// DeriveKeys expands a master secret into all three POR subkeys.
func DeriveKeys(master []byte, fileID string) KeySet {
	return KeySet{
		Enc: DeriveKey(master, LabelEnc, fileID),
		MAC: DeriveKey(master, LabelMAC, fileID),
		PRP: DeriveKey(master, LabelPRP, fileID),
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

// ErrBadOffset reports a negative keystream offset.
var ErrBadOffset = errors.New("crypt: CTR offset must be non-negative")

// EncryptCTRAt encrypts (or, being a stream cipher, decrypts) data in
// place with AES-CTR, starting at byte position offset (non-negative) of
// the logical plaintext. The 16-byte IV is derived deterministically from
// the key and fileID; each (key, fileID) pair must encrypt only one
// plaintext, which the POR setup flow guarantees because DeriveKeys binds
// the key to the file ID. Processing shard data[lo:hi] with offset lo for
// every shard of a buffer yields bytes identical to one pass over the
// whole buffer at offset 0 — the property both the parallel POR pipeline
// (AES-block aligned shards) and the streaming chunk pipeline
// (chunk-sized shards, not necessarily 16-byte aligned for custom
// geometries) rely on.
//
// The stream is seeked by hand: the counter starts at IV + offset/16 and
// the first offset%16 keystream bytes are thrown away
// (TestEncryptCTRAtMatchesStdlibCTR pins the seek against one sequential
// pass). A 32-byte key — every key DeriveKey makes — runs on the VAES
// kernel where the host has it, sixteen blocks per pass over the whole
// buffer in one call; other keys and hosts take the standard library's
// CTR stream, which generates several blocks per assembly call as no loop
// over cipher.Block.Encrypt can.
func EncryptCTRAt(key []byte, fileID string, data []byte, offset int64) error {
	switch len(key) {
	case 16, 24, 32:
	default:
		return fmt.Errorf("%w: %d", ErrBadKeyLen, len(key))
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	ivFull := sha256.Sum256([]byte("geoproof/iv/" + fileID))
	return xorCTRAt(key, (*[aes.BlockSize]byte)(ivFull[:]), data, offset, len(key) == 32 && vaesMissing == "")
}

// xorCTRAt XORs data with the AES-CTR keystream under key from counter
// block iv on, offset bytes into it: on the VAES kernel when kernel is
// set (key is then 32 bytes), else through the standard library's
// stream.
func xorCTRAt(key []byte, iv *[aes.BlockSize]byte, data []byte, offset int64, kernel bool) error {
	ctr := *iv
	addToCounter(ctr[:], uint64(offset)/aes.BlockSize)
	skip := int(offset % aes.BlockSize)
	if kernel {
		xorCTR256((*[32]byte)(key), &ctr, data, skip)
		return nil
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("new cipher: %w", err)
	}
	stream := cipher.NewCTR(block, ctr[:])
	if skip > 0 {
		var head [aes.BlockSize]byte
		stream.XORKeyStream(head[:skip], head[:skip])
	}
	stream.XORKeyStream(data, data)
	return nil
}

// ctrPassBytes is the keystream one pass of the CTR kernel makes: sixteen
// blocks.
const ctrPassBytes = 16 * aes.BlockSize

// xorCTR256 XORs data with the AES-256-CTR keystream under key from
// counter block ctr on, less its first skip bytes, on the VAES kernel.
// Whole passes run over data in place. The rest — a skipped head, a tail
// under a pass, and the blocks before the counter's low 64 bits wrap,
// which the kernel does not carry — takes one pass of keystream made in
// ks. ctr is left past the blocks used.
func xorCTR256(key *[32]byte, ctr *[aes.BlockSize]byte, data []byte, skip int) {
	var sched [240]byte
	expandKey256(key, &sched)
	var rk [15][32]byte
	for i := range rk {
		dup(&rk[i], sched[16*i:])
	}
	var ks [ctrPassBytes]byte
	for len(data) > 0 {
		// Blocks left before the low word wraps: 2⁶⁴ − lo, which for lo = 0
		// is more than any slice holds.
		lo := binary.BigEndian.Uint64(ctr[8:])
		passes := uint64(len(data) / ctrPassBytes)
		if lo != 0 {
			passes = min(passes, -lo/16)
		}
		if skip == 0 && passes > 0 {
			ctr256(&rk, ctr, &data[0], int(passes))
			data = data[passes*ctrPassBytes:]
			addToCounter(ctr[:], passes*16)
			continue
		}
		clear(ks[:])
		ctr256(&rk, ctr, &ks[0], 1)
		use := ks[:]
		if lo != 0 && -lo < 16 {
			use = ks[:-lo*aes.BlockSize]
		}
		n := subtle.XORBytes(data, data, use[skip:])
		data = data[n:]
		addToCounter(ctr[:], uint64(skip+n)/aes.BlockSize)
		skip = 0
	}
}

// dup writes the 16 bytes at v to both halves of dst, as the YMM kernels
// load a round key or mask.
func dup(dst *[32]byte, v []byte) {
	copy(dst[:16], v[:16])
	copy(dst[16:], v[:16])
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

// tagLanes is how many segments the portable slab path carries through
// the CBC chain side by side. One segment's blocks are a dependency chain
// — each Encrypt waits for the one before — so a lone chain leaves the AES
// unit mostly idle; four independent chains overlap in it.
const tagLanes = 4

// kernelLanes is how many segments the amd64 kernel, tagSlab16, carries
// per pass: two per YMM register, one in each half, in Y0–Y7. Each
// VAESENC advances two chains, and eight in flight cover its latency.
const kernelLanes = 16

// bodyLen is how many bytes of an n-byte message CMAC absorbs ahead of its
// final block: all but the last 1..16 bytes, in whole blocks.
func bodyLen(n int) int {
	if n <= aes.BlockSize {
		return 0
	}
	return (n - 1) / aes.BlockSize * aes.BlockSize
}

// sum finishes len(x) ≤ tagLanes CMACs at once. On entry x[l] holds lane
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
func (c *cmac) sum(x [][aes.BlockSize]byte, slab []byte, stride, n int) {
	body := bodyLen(n)
	for off := 0; off < body; off += aes.BlockSize {
		for l := range x {
			xor16(&x[l], slab[l*stride+off:])
		}
		for l := range x {
			c.block.Encrypt(x[l][:], x[l][:])
		}
	}
	c.last(x, slab, stride, body, n)
	for l := range x {
		c.block.Encrypt(x[l][:], x[l][:])
	}
}

// last XORs each lane's final block — bytes body..n of its message at
// slab[l*stride:] — into its chain state: masked by K1 when it is a whole
// block, padded with 10* and masked by K2 when it is not.
func (c *cmac) last(x [][aes.BlockSize]byte, slab []byte, stride, body, n int) {
	for l := range x {
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
}

// Tagger computes the segment tags τ_i = MAC_K'(S_i, i, fid) of §V-A
// step 5 as truncated AES-CMAC: τ_i is the first Bits bits of
// CMAC_K(H_i ‖ S_i), where K is an AES-128 key derived from the tag key
// and the header block H_i is the segment index (8 bytes, big-endian)
// followed by the first 8 bytes of SHA-256(fileID). The paper's example
// uses 20-bit tags, relying on the large number of verified tags per
// audit for cumulative soundness.
//
// A default segment (five 16-byte blocks) costs six AES blocks: H_i and
// the five, and none for padding, as CMAC's subkeys cover any segment
// length without one. The POR pipeline tags, and the extractor verifies,
// runs of whole segments; TagSlab and VerifySlab take such a run and, on
// an amd64 host with VAES, hand its whole sixteen-segment groups to one
// call of the fused kernel (tagSlab16), which builds the headers, walks
// the chains, masks the final block, truncates and stores or compares
// every tag. Elsewhere, and for a run's last run mod 16, segments go four
// at a time through cipher.Block. Tag, AppendTag and VerifyTag take the
// one-lane path. Scratch is pooled, so every form but Tag allocates
// nothing, and a Tagger is safe for concurrent use.
type Tagger struct {
	mac  *cmac
	bits int
	// kernel is set when the slab forms run tagSlab16, under the round
	// keys rk (each twice): the host has VAES (vaesMissing is empty).
	kernel bool
	rk     [11][32]byte
	pool   sync.Pool // of *tagScratch
}

type tagScratch struct {
	x [tagLanes][aes.BlockSize]byte
	// The file ID half of the header block, for the last file ID seen (if
	// seen is set): the API takes the ID on every call, one file's worth of
	// calls in a row.
	seen   bool
	fileID string
	fidSum [8]byte
	args   tagArgs
}

// tagArgs is the fused kernel's view of one slab call, everything it
// reads but the slab, laid out as kernel_amd64.s addresses it (A_* there;
// TestTagArgsLayout pins the offsets). Each 32-byte field is one 16-byte
// value twice over, for both halves of a YMM register.
type tagArgs struct {
	rk     [11][32]byte          // AES-128 round keys
	hdr    [32]byte              // 0⁶⁴ ‖ file ID half ⊕ round key 0, ⊕ K1 for an empty payload
	fin    [32]byte              // the final block's mask, K1 or K2 ⊕ the 10* pad, ⊕ round key 0
	shuf   [32]byte              // VPSHUFB control: the final block's bytes from its load, zeros behind
	trunc  [32]byte              // Size bytes of ones, the last cut to the tag width
	tags   [kernelLanes][16]byte // a pass's truncated tags, in segment order
	index  uint64                // the next pass's first segment index
	stride int                   // bytes from one segment to the next
	blocks int                   // body blocks per segment
	finOff int                   // the final block's load offset in its segment; -1 for none
	slot   int                   // the tag slot's offset in its segment: the payload length
	width  int                   // 8, 4, 2 or 1: the widest word not above Size
	tail   int                   // Size − width, the offset of a tag's second, overlapping word
}

// setup fills a for a run of payload-byte segments under t, the first of
// them segment first of the file whose header half is fidSum.
func (a *tagArgs) setup(t *Tagger, fidSum *[8]byte, payload int, first uint64) {
	var hdr, fin, shuf, trunc [aes.BlockSize]byte
	copy(hdr[8:], fidSum[:])
	if payload == 0 { // the header is the whole message, so its final block
		xor16(&hdr, t.mac.k1[:])
	}
	xor16(&hdr, t.rk[0][:])
	a.finOff = -1
	if payload > 0 {
		// The final block is r bytes, read with one 16-byte load that ends
		// at the payload's end, or starts at the segment's when the payload
		// is shorter.
		r := payload - bodyLen(payload)
		a.finOff = max(payload-aes.BlockSize, 0)
		from := payload - a.finOff - r
		for i := range shuf {
			shuf[i] = 0x80 // VPSHUFB writes a zero
			if i < r {
				shuf[i] = byte(from + i)
			}
		}
		fin = t.mac.k1
		if r < aes.BlockSize {
			fin = t.mac.k2
			fin[r] ^= 0x80
		}
		xor16(&fin, t.rk[0][:])
	}
	size := t.Size()
	for i := 0; i < size; i++ {
		trunc[i] = 0xFF
	}
	if rem := t.bits % 8; rem != 0 {
		trunc[size-1] = byte(0xFF << (8 - rem))
	}
	a.rk = t.rk
	dup(&a.hdr, hdr[:])
	dup(&a.fin, fin[:])
	dup(&a.shuf, shuf[:])
	dup(&a.trunc, trunc[:])
	a.index, a.stride, a.blocks, a.slot = first, payload+size, bodyLen(payload)/aes.BlockSize, payload
	a.width = 8
	for a.width > size {
		a.width /= 2
	}
	a.tail = size - a.width
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
	t := &Tagger{mac: mac, bits: bits, kernel: vaesMissing == ""}
	if t.kernel {
		t.setKernelKey((*[16]byte)(kd[:16]))
	}
	t.pool.New = func() any { return new(tagScratch) }
	return t, nil
}

// setKernelKey expands key into the kernel's round keys.
func (t *Tagger) setKernelKey(key *[16]byte) {
	var sched [176]byte
	expandKey128(key, &sched)
	for i := range t.rk {
		dup(&t.rk[i], sched[16*i:])
	}
}

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

// tags computes, on the portable path, the tags of lanes ≤ tagLanes
// consecutive segments, the first of them segment index of the file:
// lane l's payload is the n bytes at slab[l*stride:]. It leaves lane l's
// tag, truncated and zero-padded to whole bytes, in s.x[l][:t.Size()].
func (t *Tagger) tags(s *tagScratch, lanes int, slab []byte, stride, n int, index uint64) {
	x := s.x[:lanes]
	for l := range x {
		binary.BigEndian.PutUint64(x[l][:8], index+uint64(l))
		copy(x[l][8:], s.fidSum[:])
		if n == 0 { // the header is the whole message, so its final block
			xor16(&x[l], t.mac.k1[:])
		}
	}
	for l := range x {
		t.mac.block.Encrypt(x[l][:], x[l][:])
	}
	if n > 0 {
		t.mac.sum(x, slab, stride, n)
	}
	if rem := t.bits % 8; rem != 0 {
		for l := range x {
			x[l][t.Size()-1] &= byte(0xFF << (8 - rem))
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

// TagSlab stamps every segment of slab with its tag: the setup pipeline's
// form of AppendTag. slab is a run of whole stored segments — payload
// bytes of data followed by a Size-byte tag slot — the first of which is
// segment first of the file. It allocates nothing.
func (t *Tagger) TagSlab(slab []byte, payload int, first uint64, fileID string) {
	s := t.scratch(fileID)
	t.slab(s, slab, payload, first, false, nil)
	t.pool.Put(s)
}

// VerifySlab checks every segment of slab (a run as TagSlab takes)
// against the tag stored behind it, in constant time per tag, and sets
// bad[i] for each segment i of the run that fails; bad holds an entry per
// segment. It is the extractor's form of VerifyTag and allocates nothing.
func (t *Tagger) VerifySlab(slab []byte, payload int, first uint64, fileID string, bad []bool) {
	s := t.scratch(fileID)
	t.slab(s, slab, payload, first, true, bad)
	t.pool.Put(s)
}

// slab stamps (or, with verify set, checks) every tag of a run under s's
// file ID half: its whole sixteen-segment groups on the kernel while t
// runs it, the rest tagLanes at a time.
func (t *Tagger) slab(s *tagScratch, slab []byte, payload int, first uint64, verify bool, bad []bool) {
	size := t.Size()
	stride := payload + size
	if len(slab)%stride != 0 {
		panic(fmt.Sprintf("crypt: slab of %d bytes is not a run of %d-byte segments", len(slab), stride))
	}
	n, i := len(slab)/stride, 0
	if t.kernel {
		i = t.kernelRun(s, slab, payload, first, verify, bad)
	}
	for ; i < n; i += tagLanes {
		lanes := min(tagLanes, n-i)
		t.tags(s, lanes, slab[i*stride:], stride, payload, first+uint64(i))
		for l := 0; l < lanes; l++ {
			slot, tag := slab[(i+l)*stride+payload:(i+l+1)*stride], s.x[l][:size]
			if !verify {
				copy(slot, tag)
			} else if subtle.ConstantTimeCompare(slot, tag) != 1 {
				bad[i+l] = true
			}
		}
	}
}

// kernelRun hands the whole sixteen-segment groups at the start of slab
// to one tagSlab16 call and returns how many segments they hold. Each
// final block is one 16-byte load, which for a payload under 16 bytes
// reads past the payload: the last group is left to the portable path
// when that load would leave the slab.
func (t *Tagger) kernelRun(s *tagScratch, slab []byte, payload int, first uint64, verify bool, bad []bool) int {
	stride := payload + t.Size()
	reach := stride // how far into its segment the kernel reads
	if payload > 0 {
		reach = max(stride, aes.BlockSize)
	}
	groups := len(slab) / stride / kernelLanes
	for groups > 0 && (groups*kernelLanes-1)*stride+reach > len(slab) {
		groups--
	}
	if groups == 0 {
		return 0
	}
	s.args.setup(t, &s.fidSum, payload, first)
	var flags *bool
	if verify {
		_ = bad[groups*kernelLanes-1] // every flag the kernel writes
		flags = &bad[0]
	}
	tagSlab16(&s.args, &slab[0], flags, groups)
	return groups * kernelLanes
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

// PublicKey is a verifier device's Ed25519 verification key: 32 bytes,
// printed by the device and registered with the TPA as 64 hex digits.
type PublicKey []byte

// String returns the key's hex form.
func (k PublicKey) String() string { return hex.EncodeToString(k) }

// ParsePublicKey reads a key from its hex form.
func ParsePublicKey(s string) (PublicKey, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPublicKey, err)
	}
	k := PublicKey(raw)
	if err := k.Check(); err != nil {
		return nil, err
	}
	return k, nil
}

// Check refuses a key of the wrong length with ErrBadPublicKey. Every key
// passes it before it is used, because ed25519.Verify panics on any
// length but 32 bytes.
func (k PublicKey) Check() error {
	if len(k) != ed25519.PublicKeySize {
		return fmt.Errorf("%w, got %d hex digits", ErrBadPublicKey, 2*len(k))
	}
	return nil
}

// Signer holds the Ed25519 private key the verifier device signs audit
// transcripts with (§V-B: Sign_SK(R)).
type Signer struct {
	priv ed25519.PrivateKey
	pub  PublicKey
}

// NewSigner generates a fresh signing key from crypto/rand.
func NewSigner() (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate signing key: %w", err)
	}
	return &Signer{priv: priv, pub: PublicKey(pub)}, nil
}

// Public returns the verification key. Callers must not modify it.
func (s *Signer) Public() PublicKey { return s.pub }

// Sign signs the SHA-256 digest of msg and returns the 64-byte
// signature. Ed25519 is deterministic: one key and one message always give
// the same signature. The error is always nil.
func (s *Signer) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return ed25519.Sign(s.priv, digest[:]), nil
}

// Verify checks sig over msg under pub: ErrBadPublicKey for a key of the
// wrong length, ErrBadSignature for a signature that does not verify.
func Verify(pub PublicKey, msg, sig []byte) error {
	if err := pub.Check(); err != nil {
		return err
	}
	digest := sha256.Sum256(msg)
	if !ed25519.Verify(ed25519.PublicKey(pub), digest[:], sig) {
		return ErrBadSignature
	}
	return nil
}

// ChallengeIndices derives k pseudorandom distinct segment indices in
// [0, n) from a key and a label, using rejection sampling over
// an HMAC-SHA256 counter stream. It reproduces the verifier's random
// challenge set c = {c_1..c_k} ⊆ {1..n} (§V-B) deterministically for a
// given (key, label), which lets the TPA re-derive and cross-check the
// challenged set. Its one caller, core.DeriveIndices, keys it with the
// audit nonce.
func ChallengeIndices(key, label []byte, n uint64, k int) ([]uint64, error) {
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
		mac.Write(label)
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
