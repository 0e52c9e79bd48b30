package core

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/merkle"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Errors reported by the protocol layer.
var (
	ErrBadRequest    = errors.New("core: invalid audit request")
	ErrNoRounds      = errors.New("core: transcript has no successful rounds")
	ErrBadTranscript = errors.New("core: malformed transcript")
)

// AuditRequest is the TPA→verifier message opening an audit: the file,
// its segment count ñ, the number of rounds k and a fresh nonce N (§V-B).
type AuditRequest struct {
	FileID      string
	NumSegments int64
	K           int
	Nonce       []byte
}

// Validate checks the request shape.
func (r AuditRequest) Validate() error {
	switch {
	case r.FileID == "":
		return fmt.Errorf("%w: empty file id", ErrBadRequest)
	case r.NumSegments <= 0:
		return fmt.Errorf("%w: %d segments", ErrBadRequest, r.NumSegments)
	case r.K <= 0 || int64(r.K) > r.NumSegments:
		return fmt.Errorf("%w: k=%d of %d", ErrBadRequest, r.K, r.NumSegments)
	case len(r.Nonce) == 0:
		return fmt.Errorf("%w: empty nonce", ErrBadRequest)
	}
	return nil
}

// DeriveIndices expands the audit nonce into k distinct segment indices.
// Both V and A can compute the set, so the TPA can confirm the verifier
// challenged exactly the nonce-committed segments; the prover never sees
// the nonce and cannot prefetch.
func DeriveIndices(nonce []byte, numSegments int64, k int) ([]uint64, error) {
	idx, err := crypt.ChallengeIndices(nonce, []byte("geoproof/indices"), uint64(numSegments), k)
	if err != nil {
		return nil, fmt.Errorf("derive indices: %w", err)
	}
	return idx, nil
}

// AuditRound is one timed exchange: the requested index, the returned
// segment (nil when the request failed) and the measured round-trip time.
type AuditRound struct {
	Index   uint64
	Segment []byte
	RTT     time.Duration
	Failed  bool
}

// Transcript is the record the verifier signs (§V-B): times, challenge
// indices, returned segments, the nonce and V's GPS position.
type Transcript struct {
	FileID   string
	Nonce    []byte
	Position geo.Position
	Rounds   []AuditRound
}

// Marshal produces the canonical byte encoding covered by the signature.
// The buffer is sized from the fields, so the encoding is one allocation
// of exactly its length.
func (t Transcript) Marshal() []byte {
	size := 4 + len(t.FileID) + 4 + len(t.Nonce) + 16 + 4
	for _, r := range t.Rounds {
		size += 17 + 4 + len(r.Segment)
	}
	h := make([]byte, 0, size)
	h = binary.BigEndian.AppendUint32(h, uint32(len(t.FileID)))
	h = append(h, t.FileID...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(t.Nonce)))
	h = append(h, t.Nonce...)
	// Fixed-point 1e-7° coordinates; math.Round (not truncation) makes
	// the encode/decode cycle exact for every valid coordinate.
	h = binary.BigEndian.AppendUint64(h, uint64(int64(math.Round(t.Position.LatDeg*1e7))))
	h = binary.BigEndian.AppendUint64(h, uint64(int64(math.Round(t.Position.LonDeg*1e7))))
	h = binary.BigEndian.AppendUint32(h, uint32(len(t.Rounds)))
	for _, r := range t.Rounds {
		h = binary.BigEndian.AppendUint64(h, r.Index)
		h = binary.BigEndian.AppendUint64(h, uint64(r.RTT))
		var failed byte
		if r.Failed {
			failed = 1
		}
		h = append(h, failed)
		h = binary.BigEndian.AppendUint32(h, uint32(len(r.Segment)))
		h = append(h, r.Segment...)
	}
	return h
}

// BatchAttestation authenticates a transcript through a batch-signed
// Merkle root instead of a per-transcript signature: the verifier signed
// Root (domain-separated, crypt.SignBatchRoot) and Proof ties the
// SHA-256 of the transcript's canonical encoding to Root at leaf
// Proof.Index. It is in-process only, kept for bench's audit-fleet-disk:
// no codec carries it, so a batch-attested transcript that crosses the
// wire arrives unsigned and is rejected.
type BatchAttestation struct {
	Root    merkle.Hash
	RootSig []byte
	Proof   merkle.Proof
}

// SignedTranscript is the verifier's final message to the TPA: the
// transcript and Sign_SK(R), the device's Ed25519 signature over its
// canonical encoding. Batch replaces the signature only in process (see
// BatchAttestation); when it is set, the TPA checks it instead.
type SignedTranscript struct {
	Transcript Transcript
	Signature  []byte
	Batch      *BatchAttestation

	// raw caches the canonical transcript encoding on the producer/wire
	// side (finishAudit, codec decode) so signing, leaf digesting and
	// wire encoding marshal once. Verification never trusts it: a caller
	// may mutate Transcript after the cache was taken, and the TPA's
	// verdict must follow the bytes it re-marshals itself.
	raw []byte
}

// ProverConn is the verifier's channel to the prover; MuxProverConn, over
// TCP or a simulated network's stream, is the one implementation. The
// verifier times the call with its own clock. One call is one challenge and one response: the
// verifier never has two rounds of an audit in flight, because the
// per-round time is the distance bound (§V-B).
//
// GetSegment must honour ctx: return promptly once ctx is cancelled or
// past its deadline. This is what lets the audit scheduler truly cancel
// a timed-out attempt instead of abandoning its goroutine.
type ProverConn interface {
	GetSegment(ctx context.Context, fileID string, index uint64) ([]byte, error)
}

// Verifier is the tamper-proof device: a signing key, a GPS receiver and
// a clock. The zero value is unusable; construct with NewVerifier.
type Verifier struct {
	signer *crypt.Signer
	gps    *gps.Receiver
	clock  vclock.Clock
	batch  *crypt.BatchSigner
}

// NewVerifier assembles a verifier device. A nil clock defaults to the
// wall clock.
func NewVerifier(signer *crypt.Signer, receiver *gps.Receiver, clock vclock.Clock) (*Verifier, error) {
	if signer == nil || receiver == nil {
		return nil, errors.New("core: verifier needs a signer and a GPS receiver")
	}
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Verifier{signer: signer, gps: receiver, clock: clock}, nil
}

// WithBatchSigner returns a copy of the verifier whose finishAudit
// enqueues transcript digests into bs instead of signing each
// transcript inline — the batch amortizes one Ed25519 signature over
// every audit that lands inside the batcher's size/latency window. A
// nil bs returns a copy that signs per transcript. The copy shares the
// device's key, GPS receiver and clock, so timing semantics are
// untouched: only the attestation form changes. It is in-process only,
// kept for bench's audit-fleet-disk: no command builds such a verifier,
// and EncodeSignedTranscript drops the attestation it makes.
func (v *Verifier) WithBatchSigner(bs *crypt.BatchSigner) *Verifier {
	w := *v
	w.batch = bs
	return &w
}

// RunAudit executes the distance-bounding phase: it derives the challenge
// indices from the nonce, requests each segment over conn — one at a
// time, the next challenge leaving only after the last response arrived
// — while timing the round trip on its own clock, then signs the
// transcript together with its GPS fix. Failed rounds are recorded
// rather than aborting the audit — the TPA decides what failures mean.
//
// ctx cancellation aborts the audit between (and, for ctx-aware
// transports, inside) rounds with ctx's error: a cancelled audit yields
// no transcript, so the caller's verdict is its own timeout/cancel
// handling, never a half-signed record.
func (v *Verifier) RunAudit(ctx context.Context, req AuditRequest, conn ProverConn) (SignedTranscript, error) {
	if err := req.Validate(); err != nil {
		return SignedTranscript{}, err
	}
	if conn == nil {
		return SignedTranscript{}, fmt.Errorf("%w: nil prover connection", ErrBadRequest)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	indices, err := DeriveIndices(req.Nonce, req.NumSegments, req.K)
	if err != nil {
		return SignedTranscript{}, err
	}
	tr := telemetry.TraceFrom(ctx)
	endRounds := tr.Span("rounds")
	rounds := make([]AuditRound, 0, len(indices))
	for _, idx := range indices {
		if err := ctx.Err(); err != nil {
			return SignedTranscript{}, fmt.Errorf("core: audit cancelled after %d rounds: %w", len(rounds), err)
		}
		start := v.clock.Now()
		seg, err := conn.GetSegment(ctx, req.FileID, idx)
		rtt := v.clock.Now().Sub(start)
		if ctx.Err() != nil {
			// The round lost a race with cancellation: whatever came back is
			// not evidence about the prover, so drop the audit rather than
			// record it.
			return SignedTranscript{}, fmt.Errorf("core: audit cancelled after %d rounds: %w", len(rounds), ctx.Err())
		}
		round := AuditRound{Index: idx, RTT: rtt}
		if err != nil {
			round.Failed = true
		} else {
			round.Segment = seg
		}
		rounds = append(rounds, round)
	}
	endRounds()
	endAttest := tr.Span("attest")
	st, err := v.finishAudit(req, rounds)
	endAttest()
	return st, err
}

// finishAudit attaches the GPS fix and attests the completed rounds:
// per-transcript signature by default, batch enqueue when a
// crypt.BatchSigner is attached. The transcript is marshaled exactly
// once — the same buffer feeds the signature (or the batch leaf digest)
// and is cached for wire encoding.
func (v *Verifier) finishAudit(req AuditRequest, rounds []AuditRound) (SignedTranscript, error) {
	tr := Transcript{
		FileID:   req.FileID,
		Nonce:    append([]byte{}, req.Nonce...),
		Position: v.gps.Fix(),
		Rounds:   rounds,
	}
	raw := tr.Marshal()
	if v.batch != nil {
		att, err := v.batch.Sign(sha256.Sum256(raw))
		if err != nil {
			return SignedTranscript{}, fmt.Errorf("batch-sign transcript: %w", err)
		}
		return SignedTranscript{
			Transcript: tr,
			Batch:      &BatchAttestation{Root: att.Root, RootSig: att.Sig, Proof: att.Proof},
			raw:        raw,
		}, nil
	}
	sig, err := v.signer.Sign(raw)
	if err != nil {
		return SignedTranscript{}, fmt.Errorf("sign transcript: %w", err)
	}
	return SignedTranscript{Transcript: tr, Signature: sig, raw: raw}, nil
}

// NonceEqual compares nonces in constant time.
func NonceEqual(a, b []byte) bool { return hmac.Equal(a, b) }
