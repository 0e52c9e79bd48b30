package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/geo"
	"repro/internal/merkle"
	"time"
)

// Wire codecs for the TPA↔verifier leg of a distributed deployment. The
// transcript's canonical signing encoding (Transcript.Marshal) is fully
// length-delimited, so it doubles as the wire format; the signature is
// appended with its own length prefix.

// byteReader tracks a parse position over a buffer.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrBadTranscript, n, r.off, len(r.b))
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *byteReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *byteReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *byteReader) lenPrefixed() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	return r.take(int(n))
}

// UnmarshalTranscript parses the canonical encoding produced by
// Transcript.Marshal. Round-tripping is exact: re-marshalling the result
// yields the identical bytes, so signatures verify across the wire.
func UnmarshalTranscript(b []byte) (Transcript, error) {
	r := &byteReader{b: b}
	var t Transcript

	fid, err := r.lenPrefixed()
	if err != nil {
		return t, err
	}
	t.FileID = string(fid)
	nonce, err := r.lenPrefixed()
	if err != nil {
		return t, err
	}
	t.Nonce = append([]byte{}, nonce...)

	lat, err := r.u64()
	if err != nil {
		return t, err
	}
	lon, err := r.u64()
	if err != nil {
		return t, err
	}
	// Valid fixed-point coordinates (|lat| ≤ 90°, |lon| ≤ 180° at 1e-7°
	// resolution) are small enough to round-trip exactly through
	// float64; anything outside is a malformed fix.
	latI, lonI := int64(lat), int64(lon)
	if latI < -90e7 || latI > 90e7 || lonI < -180e7 || lonI > 180e7 {
		return t, fmt.Errorf("%w: position %d,%d out of range", ErrBadTranscript, latI, lonI)
	}
	t.Position = geo.Position{LatDeg: float64(latI) / 1e7, LonDeg: float64(lonI) / 1e7}

	nRounds, err := r.u32()
	if err != nil {
		return t, err
	}
	if int(nRounds) > len(b) { // each round needs >=21 bytes; cheap sanity cap
		return t, fmt.Errorf("%w: %d rounds in %d bytes", ErrBadTranscript, nRounds, len(b))
	}
	t.Rounds = make([]AuditRound, 0, nRounds)
	for i := uint32(0); i < nRounds; i++ {
		idx, err := r.u64()
		if err != nil {
			return t, err
		}
		rtt, err := r.u64()
		if err != nil {
			return t, err
		}
		flag, err := r.take(1)
		if err != nil {
			return t, err
		}
		if flag[0] > 1 {
			return t, fmt.Errorf("%w: round flag %#x", ErrBadTranscript, flag[0])
		}
		seg, err := r.lenPrefixed()
		if err != nil {
			return t, err
		}
		round := AuditRound{Index: idx, RTT: time.Duration(rtt), Failed: flag[0] == 1}
		if len(seg) > 0 {
			round.Segment = append([]byte{}, seg...)
		}
		t.Rounds = append(t.Rounds, round)
	}
	if r.off != len(b) {
		return t, fmt.Errorf("%w: %d trailing bytes", ErrBadTranscript, len(b)-r.off)
	}
	return t, nil
}

// EncodeSignedTranscript serialises transcript ‖ signature, followed by
// an optional length-prefixed batch-attestation section when the
// transcript is batch-attested; the decoder tells the two forms apart by
// whether that section is there. A transcript that already carries its
// canonical encoding (finishAudit, decode) is not re-marshaled.
func EncodeSignedTranscript(st SignedTranscript) []byte {
	tb := st.raw
	if tb == nil {
		tb = st.Transcript.Marshal()
	}
	var att []byte
	if st.Batch != nil {
		att = EncodeBatchAttestation(*st.Batch)
	}
	out := make([]byte, 0, 12+len(tb)+len(st.Signature)+len(att))
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(tb)))
	out = append(out, l[:]...)
	out = append(out, tb...)
	binary.BigEndian.PutUint32(l[:], uint32(len(st.Signature)))
	out = append(out, l[:]...)
	out = append(out, st.Signature...)
	if att != nil {
		binary.BigEndian.PutUint32(l[:], uint32(len(att)))
		out = append(out, l[:]...)
		out = append(out, att...)
	}
	return out
}

// DecodeSignedTranscript parses EncodeSignedTranscript's output,
// including the optional batch-attestation section.
func DecodeSignedTranscript(b []byte) (SignedTranscript, error) {
	r := &byteReader{b: b}
	tb, err := r.lenPrefixed()
	if err != nil {
		return SignedTranscript{}, err
	}
	tr, err := UnmarshalTranscript(tb)
	if err != nil {
		return SignedTranscript{}, err
	}
	sig, err := r.lenPrefixed()
	if err != nil {
		return SignedTranscript{}, err
	}
	st := SignedTranscript{Transcript: tr, raw: append([]byte{}, tb...)}
	if len(sig) > 0 {
		st.Signature = append([]byte{}, sig...)
	}
	if r.off != len(b) {
		ab, err := r.lenPrefixed()
		if err != nil {
			return SignedTranscript{}, err
		}
		att, err := DecodeBatchAttestation(ab)
		if err != nil {
			return SignedTranscript{}, err
		}
		st.Batch = &att
	}
	if r.off != len(b) {
		return SignedTranscript{}, fmt.Errorf("%w: trailing bytes", ErrBadTranscript)
	}
	return st, nil
}

// maxProofSteps bounds an attestation's Merkle path length. A path of
// 64 steps would imply 2^64 transcripts under one root; anything longer
// is malformed, and the bound keeps decode allocation proportional to
// honest input.
const maxProofSteps = 64

// EncodeBatchAttestation serialises a batch attestation:
// root ‖ len(sig) ‖ sig ‖ leaf index ‖ step count ‖ steps, each step an
// orientation flag byte plus the 32-byte sibling hash.
func EncodeBatchAttestation(att BatchAttestation) []byte {
	out := make([]byte, 0, 32+4+len(att.RootSig)+8+33*len(att.Proof.Steps))
	out = append(out, att.Root[:]...)
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(att.RootSig)))
	out = append(out, l[:]...)
	out = append(out, att.RootSig...)
	binary.BigEndian.PutUint32(l[:], uint32(att.Proof.Index))
	out = append(out, l[:]...)
	binary.BigEndian.PutUint32(l[:], uint32(len(att.Proof.Steps)))
	out = append(out, l[:]...)
	for _, s := range att.Proof.Steps {
		if s.Left {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = append(out, s.Sibling[:]...)
	}
	return out
}

// DecodeBatchAttestation parses EncodeBatchAttestation's output. The
// decode is canonical: re-encoding the result yields identical bytes.
func DecodeBatchAttestation(b []byte) (BatchAttestation, error) {
	r := &byteReader{b: b}
	var att BatchAttestation
	root, err := r.take(32)
	if err != nil {
		return att, err
	}
	copy(att.Root[:], root)
	sig, err := r.lenPrefixed()
	if err != nil {
		return att, err
	}
	att.RootSig = append([]byte{}, sig...)
	idx, err := r.u32()
	if err != nil {
		return att, err
	}
	att.Proof.Index = int(idx)
	nSteps, err := r.u32()
	if err != nil {
		return att, err
	}
	if nSteps > maxProofSteps {
		return att, fmt.Errorf("%w: %d proof steps", ErrBadTranscript, nSteps)
	}
	if nSteps > 0 {
		att.Proof.Steps = make([]merkle.ProofStep, nSteps)
	}
	for i := range att.Proof.Steps {
		flag, err := r.take(1)
		if err != nil {
			return att, err
		}
		if flag[0] > 1 {
			return att, fmt.Errorf("%w: step flag %#x", ErrBadTranscript, flag[0])
		}
		sib, err := r.take(32)
		if err != nil {
			return att, err
		}
		att.Proof.Steps[i].Left = flag[0] == 1
		copy(att.Proof.Steps[i].Sibling[:], sib)
	}
	if r.off != len(b) {
		return att, fmt.Errorf("%w: trailing attestation bytes", ErrBadTranscript)
	}
	return att, nil
}

// EncodeAuditRequest serialises an audit request for the TPA→verifier
// leg.
func EncodeAuditRequest(req AuditRequest) []byte {
	id := []byte(req.FileID)
	out := make([]byte, 0, 4+len(id)+8+4+4+len(req.Nonce))
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(id)))
	out = append(out, l[:]...)
	out = append(out, id...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(req.NumSegments))
	out = append(out, u64[:]...)
	binary.BigEndian.PutUint32(l[:], uint32(req.K))
	out = append(out, l[:]...)
	binary.BigEndian.PutUint32(l[:], uint32(len(req.Nonce)))
	out = append(out, l[:]...)
	out = append(out, req.Nonce...)
	return out
}

// DecodeAuditRequest parses EncodeAuditRequest's output and validates it.
func DecodeAuditRequest(b []byte) (AuditRequest, error) {
	r := &byteReader{b: b}
	id, err := r.lenPrefixed()
	if err != nil {
		return AuditRequest{}, err
	}
	n, err := r.u64()
	if err != nil {
		return AuditRequest{}, err
	}
	k, err := r.u32()
	if err != nil {
		return AuditRequest{}, err
	}
	nonce, err := r.lenPrefixed()
	if err != nil {
		return AuditRequest{}, err
	}
	if r.off != len(b) {
		return AuditRequest{}, fmt.Errorf("%w: trailing bytes", ErrBadTranscript)
	}
	req := AuditRequest{
		FileID:      string(id),
		NumSegments: int64(n),
		K:           int(k),
		Nonce:       append([]byte{}, nonce...),
	}
	if err := req.Validate(); err != nil {
		return AuditRequest{}, err
	}
	return req, nil
}
