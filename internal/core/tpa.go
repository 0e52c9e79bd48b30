package core

import (
	"container/list"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
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

// Report is the TPA's verdict with every §V-B check broken out.
type Report struct {
	Accepted bool

	SignatureOK bool
	PositionOK  bool
	IndicesOK   bool
	MACsOK      bool
	TimingOK    bool

	// Attestation records which authentication form produced
	// SignatureOK: the per-transcript ECDSA signature or a batch root
	// signature plus Merkle inclusion proof.
	Attestation AttestationMode

	SegmentsOK   int
	SegmentsBad  int
	FailedRounds int
	MaxRTT       time.Duration
	MeanRTT      time.Duration

	// ImpliedMaxDistanceKm bounds how far the data can be from the
	// verifier: (Δt' − look-up budget)·speed/2, clamped at zero.
	ImpliedMaxDistanceKm float64

	Reasons []string
}

// Reason returns a human-readable rejection summary.
func (r Report) Reason() string { return strings.Join(r.Reasons, "; ") }

// TPA is the third-party auditor: it knows the owner's master secret (to
// verify MACs), the verifier's public key, and the acceptance policy.
type TPA struct {
	enc    *por.Encoder
	pub    *ecdsa.PublicKey
	policy Policy
	// nonce supplies challenge-nonce entropy (crypto/rand by default).
	// WithNonceReader swaps in a seeded source so deterministic scenarios
	// draw replayable challenge indices.
	nonce io.Reader
	// roots caches batch roots whose signature already verified, so a
	// batch of transcripts costs one ECDSA verify plus cheap SHA-256
	// inclusion checks. Pointer field: WithNonceReader copies the TPA
	// and the copy must share (and lock) the same cache.
	roots *rootCache
}

// NewTPA constructs an auditor.
func NewTPA(enc *por.Encoder, verifierKey *ecdsa.PublicKey, policy Policy) (*TPA, error) {
	if enc == nil || verifierKey == nil {
		return nil, errors.New("core: TPA needs the encoder and the verifier's public key")
	}
	if policy.TMax <= 0 {
		return nil, errors.New("core: policy TMax must be positive")
	}
	return &TPA{enc: enc, pub: verifierKey, policy: policy, nonce: rand.Reader, roots: newRootCache(rootCacheSize)}, nil
}

// WithNonceReader returns a copy of the TPA drawing challenge nonces from
// r instead of crypto/rand — the determinism seam for the scenario
// testnet, where a seeded math/rand source makes every audit's challenged
// indices replay bit-identically. The copy shares the verified-root
// cache. Never use a predictable reader in production: nonce-derived
// indices are what stop a prover precomputing responses.
func (a *TPA) WithNonceReader(r io.Reader) *TPA {
	inner := *a
	if r != nil {
		inner.nonce = r
	}
	return &inner
}

// rootCacheSize bounds the verified-root LRU. A root covers a whole
// batch of transcripts, so even a fleet-wide sweep touches few distinct
// roots; 256 keeps the cache a few KiB while making eviction churn from
// an attacker spamming garbage roots irrelevant (garbage never enters —
// only roots whose signature verified are cached).
const rootCacheSize = 256

// rootCache is a mutex-guarded bounded LRU of batch roots with a valid
// verifier signature. Caching the root (not the signature bytes) is
// sound: once any signature over root R verifies, R is known to be
// verifier-committed, and each transcript still has to prove Merkle
// membership in R.
type rootCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent; values are merkle.Hash
	index map[merkle.Hash]*list.Element

	hits, misses atomic.Int64
}

func newRootCache(capacity int) *rootCache {
	return &rootCache{cap: capacity, ll: list.New(), index: make(map[merkle.Hash]*list.Element, capacity)}
}

// verified reports whether root is cached as signature-checked, marking
// it most recently used.
func (c *rootCache) verified(root merkle.Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[root]
	if ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// add records a signature-checked root, evicting the least recently
// used entry past capacity.
func (c *rootCache) add(root merkle.Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[root]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.index[root] = c.ll.PushFront(root)
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		delete(c.index, last.Value.(merkle.Hash))
		c.ll.Remove(last)
	}
}

// verifyAttestation runs check 1 of §V-B for either attestation form
// and returns the mode plus whether it held. raw is the canonical
// transcript encoding, re-marshaled by the caller (never the producer's
// cache — verification must follow the bytes presented).
func (a *TPA) verifyAttestation(raw []byte, st SignedTranscript) (AttestationMode, bool) {
	if st.Batch == nil {
		return AttestPerTranscript, crypt.Verify(a.pub, raw, st.Signature) == nil
	}
	b := st.Batch
	if a.roots == nil || !a.roots.verified(b.Root) {
		if crypt.VerifyBatchRoot(a.pub, b.Root, b.RootSig) != nil {
			return AttestBatch, false
		}
		if a.roots != nil {
			a.roots.add(b.Root)
		}
	}
	digest := sha256.Sum256(raw)
	return AttestBatch, merkle.Verify(b.Root, digest[:], b.Proof) == nil
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

	// 1. Signature — per-transcript, or batch root + inclusion proof.
	var ok bool
	rep.Attestation, ok = a.verifyAttestation(tr.Marshal(), st)
	if ok {
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

	// Distance implication (§V-C b): residual time after the look-up
	// budget, at the configured propagation speed, halved for the round
	// trip.
	if timed > 0 && a.policy.NetSpeedKmPerMs > 0 {
		residual := rep.MaxRTT - a.policy.LookupBudget
		rep.ImpliedMaxDistanceKm = geo.MaxDistanceKm(residual, a.policy.NetSpeedKmPerMs)
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
