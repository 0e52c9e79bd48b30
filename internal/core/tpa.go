package core

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/merkle"
	"repro/internal/por"
)

// Policy is the TPA's acceptance rule, the §V-B verification process plus
// the §V-D/E/F timing budget.
type Policy struct {
	// TMax is the per-round bound Δt_max. The paper's worked budget is
	// ≈16 ms: ≤3 ms LAN round trip plus ≤13 ms disk look-up.
	TMax time.Duration
	// SLA is the contracted region the verifier's GPS fix must satisfy.
	SLA cloud.SLA
	// LookupBudget is the expected honest look-up time subtracted before
	// converting residual RTT into distance (§V-C b).
	LookupBudget time.Duration
	// NetSpeedKmPerMs converts residual time to distance; the paper uses
	// the 4/9 c Internet speed for the relay-attack bound.
	NetSpeedKmPerMs float64
	// MaxFailedRounds tolerates lost rounds before rejecting outright.
	MaxFailedRounds int
}

// DefaultPolicy returns the paper's §V-C(b) numbers: Δt_max = 16 ms,
// 13 ms look-up budget, Internet-speed conversion.
func DefaultPolicy(sla cloud.SLA) Policy {
	return Policy{
		TMax:            16 * time.Millisecond,
		SLA:             sla,
		LookupBudget:    13 * time.Millisecond,
		NetSpeedKmPerMs: geo.SpeedInternetKmPerMs,
	}
}

// ImpliedDistanceKm bounds how far data answering with worst round trip
// maxRTT can be from the verifier (§V-C b): the residual after the
// look-up budget, at the policy's network speed, halved for the round
// trip, and zero when nothing is left.
func (p Policy) ImpliedDistanceKm(maxRTT time.Duration) float64 {
	return geo.MaxDistanceKm(maxRTT-p.LookupBudget, p.NetSpeedKmPerMs)
}

// Report is the TPA's verdict with every §V-B check broken out.
type Report struct {
	Accepted bool

	SignatureOK bool
	PositionOK  bool
	IndicesOK   bool
	MACsOK      bool
	TimingOK    bool

	SegmentsOK   int
	SegmentsBad  int
	FailedRounds int
	MaxRTT       time.Duration
	MeanRTT      time.Duration

	// ImpliedMaxDistanceKm bounds how far the data can be from the
	// verifier: Policy.ImpliedDistanceKm of MaxRTT.
	ImpliedMaxDistanceKm float64

	Reasons []string
}

// Reason returns a human-readable rejection summary.
func (r Report) Reason() string { return strings.Join(r.Reasons, "; ") }

// TPA is the third-party auditor: it knows the owner's master secret (to
// verify MACs), the verifier's public key, and the acceptance policy.
type TPA struct {
	enc    *por.Encoder
	pub    crypt.PublicKey
	policy Policy
	// nonce supplies challenge-nonce entropy (crypto/rand by default).
	// WithNonceReader swaps in a seeded source so deterministic scenarios
	// draw replayable challenge indices.
	nonce io.Reader
}

// NewTPA constructs an auditor.
func NewTPA(enc *por.Encoder, verifierKey crypt.PublicKey, policy Policy) (*TPA, error) {
	if enc == nil {
		return nil, errors.New("core: TPA needs the encoder")
	}
	if err := verifierKey.Check(); err != nil {
		return nil, fmt.Errorf("core: TPA: %w", err)
	}
	if policy.TMax <= 0 {
		return nil, errors.New("core: policy TMax must be positive")
	}
	return &TPA{enc: enc, pub: verifierKey, policy: policy, nonce: rand.Reader}, nil
}

// WithNonceReader returns a copy of the TPA drawing challenge nonces from
// r instead of crypto/rand — the determinism seam for the scenario
// testnet, where a seeded math/rand source makes every audit's challenged
// indices replay bit-identically. Never use a predictable reader in production: nonce-derived
// indices are what stop a prover precomputing responses.
func (a *TPA) WithNonceReader(r io.Reader) *TPA {
	inner := *a
	if r != nil {
		inner.nonce = r
	}
	return &inner
}

// signatureOK runs check 1 of §V-B: the per-transcript signature, or
// in process a batch root signature plus the transcript's inclusion
// proof (BatchAttestation). raw is the canonical transcript encoding,
// re-marshaled by the caller (never the producer's cache — verification
// must follow the bytes presented).
func (a *TPA) signatureOK(raw []byte, st SignedTranscript) bool {
	b := st.Batch
	if b == nil {
		return crypt.Verify(a.pub, raw, st.Signature) == nil
	}
	if crypt.VerifyBatchRoot(a.pub, b.Root, b.RootSig) != nil {
		return false
	}
	digest := sha256.Sum256(raw)
	return merkle.Verify(b.Root, digest[:], b.Proof) == nil
}

// Policy returns the acceptance policy in force.
func (a *TPA) Policy() Policy { return a.policy }

// NewRequest opens an audit of k rounds with a fresh random nonce.
func (a *TPA) NewRequest(fileID string, layout blockfile.Layout, k int) (AuditRequest, error) {
	src := a.nonce
	if src == nil {
		src = rand.Reader
	}
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(src, nonce); err != nil {
		return AuditRequest{}, fmt.Errorf("sample nonce: %w", err)
	}
	req := AuditRequest{FileID: fileID, NumSegments: layout.Segments, K: k, Nonce: nonce}
	if err := req.Validate(); err != nil {
		return AuditRequest{}, err
	}
	return req, nil
}

// VerifyAudit applies the §V-B verification process to a signed
// transcript:
//
//  1. verify Sign_SK(R),
//  2. verify V's GPS position against the SLA,
//  3. verify τ_cj = MAC_K(S_cj, c_j, fid) for every round,
//  4. find Δt' = max Δt_j and check Δt' ≤ Δt_max,
//
// plus file, nonce and index consistency between the request and the
// transcript. The MACs are checked under the requested file's key: a
// transcript naming another file of the same owner is rejected, not
// checked against that file.
func (a *TPA) VerifyAudit(req AuditRequest, layout blockfile.Layout, st SignedTranscript) Report {
	rep := Report{}
	tr := st.Transcript

	// 1. Signature.
	if a.signatureOK(tr.Marshal(), st) {
		rep.SignatureOK = true
	} else {
		rep.Reasons = append(rep.Reasons, "transcript signature invalid")
	}

	// File and nonce binding: the TPA→verifier leg is not authenticated,
	// so the transcript must answer the request this TPA issued.
	if tr.FileID != req.FileID {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("transcript names file %q, request %q", tr.FileID, req.FileID))
	}
	if !NonceEqual(tr.Nonce, req.Nonce) {
		rep.Reasons = append(rep.Reasons, "nonce mismatch (replayed transcript?)")
	}

	// 2. GPS position.
	if a.policy.SLA.Permits(tr.Position) {
		rep.PositionOK = true
	} else {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("verifier position %s outside SLA region", tr.Position))
	}

	// Index consistency with the nonce-committed challenge set.
	rep.IndicesOK = true
	want, err := DeriveIndices(req.Nonce, req.NumSegments, req.K)
	if err != nil || len(want) != len(tr.Rounds) {
		rep.IndicesOK = false
	} else {
		for i, r := range tr.Rounds {
			if r.Index != want[i] {
				rep.IndicesOK = false
				break
			}
		}
	}
	if !rep.IndicesOK {
		rep.Reasons = append(rep.Reasons, "challenge indices do not match nonce derivation")
	}

	// 3. Segment MACs, batched so keys are derived once and the checks
	// fan out over the encoder's worker pool; 4. timing.
	var sumRTT time.Duration
	timed := 0
	indices := make([]int64, 0, len(tr.Rounds))
	segs := make([][]byte, 0, len(tr.Rounds))
	for _, r := range tr.Rounds {
		if r.Failed {
			rep.FailedRounds++
			continue
		}
		indices = append(indices, int64(r.Index))
		segs = append(segs, r.Segment)
		if r.RTT > rep.MaxRTT {
			rep.MaxRTT = r.RTT
		}
		sumRTT += r.RTT
		timed++
	}
	verdicts, verr := a.enc.VerifySegments(req.FileID, layout, indices, segs)
	if verr != nil {
		rep.SegmentsBad = timed // setup failure: no tag can be trusted
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("segment verification unavailable: %v", verr))
	} else {
		for _, v := range verdicts {
			if v != nil {
				rep.SegmentsBad++
			} else {
				rep.SegmentsOK++
			}
		}
	}
	if timed > 0 {
		rep.MeanRTT = sumRTT / time.Duration(timed)
	} else {
		rep.Reasons = append(rep.Reasons, ErrNoRounds.Error())
	}
	rep.MACsOK = rep.SegmentsBad == 0 && timed > 0
	if rep.SegmentsBad > 0 {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("%d of %d segments failed MAC verification", rep.SegmentsBad, timed))
	}
	rep.TimingOK = timed > 0 && rep.MaxRTT <= a.policy.TMax
	if timed > 0 && !rep.TimingOK {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("max RTT %v exceeds Δt_max %v", rep.MaxRTT, a.policy.TMax))
	}
	if rep.FailedRounds > a.policy.MaxFailedRounds {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("%d rounds failed (budget %d)", rep.FailedRounds, a.policy.MaxFailedRounds))
	}

	// Distance implication (§V-C b).
	if timed > 0 {
		rep.ImpliedMaxDistanceKm = a.policy.ImpliedDistanceKm(rep.MaxRTT)
	}

	rep.Accepted = rep.SignatureOK && rep.PositionOK && rep.IndicesOK &&
		rep.MACsOK && rep.TimingOK &&
		tr.FileID == req.FileID && NonceEqual(tr.Nonce, req.Nonce) &&
		rep.FailedRounds <= a.policy.MaxFailedRounds
	return rep
}

// MaxUndetectableRelayKm answers the paper's relay-attack question
// (§V-C b) with explicit budget accounting: after the local LAN round
// trip and the remote site's look-up, whatever remains of Δt_max is
// available for relay propagation, which converts to a one-way distance
// at the policy's network speed.
func (a *TPA) MaxUndetectableRelayKm(remoteLookup time.Duration, localLANRTT time.Duration) float64 {
	slack := a.policy.TMax - localLANRTT - remoteLookup
	return geo.MaxDistanceKm(slack, a.policy.NetSpeedKmPerMs)
}

// PaperRelayBoundKm reproduces the paper's own §V-C(b) arithmetic
// verbatim: the relay distance coverable during the remote disk's look-up
// time, speed·Δt_LB/2. With the IBM 36Z15's 5.406 ms and 4/9 c this is
// the quoted 360 km.
func PaperRelayBoundKm(remoteLookup time.Duration, netSpeedKmPerMs float64) float64 {
	return geo.MaxDistanceKm(remoteLookup, netSpeedKmPerMs)
}
