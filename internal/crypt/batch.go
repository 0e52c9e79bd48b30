package crypt

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/merkle"
)

// ErrBatchSignerClosed is returned by BatchSigner.Sign after Close.
var ErrBatchSignerClosed = errors.New("crypt: batch signer closed")

// batchRootDomain prefixes every signed batch root, so a root signature
// can never be confused with a per-transcript signature: a transcript
// marshal starting with these bytes would declare an absurd fileID
// length and fail decode, and a transcript digest is never signed
// directly in batch mode.
const batchRootDomain = "geoproof/batch-root/v1\x00"

func batchRootMessage(root merkle.Hash) []byte {
	msg := make([]byte, 0, len(batchRootDomain)+len(root))
	msg = append(msg, batchRootDomain...)
	return append(msg, root[:]...)
}

// SignBatchRoot signs a Merkle batch root under the batch domain prefix.
func (s *Signer) SignBatchRoot(root merkle.Hash) ([]byte, error) {
	return s.Sign(batchRootMessage(root))
}

// VerifyBatchRoot checks a batch-root signature under pub.
func VerifyBatchRoot(pub PublicKey, root merkle.Hash, sig []byte) error {
	return Verify(pub, batchRootMessage(root), sig)
}

// RootAttestation is what BatchSigner returns for one enqueued digest:
// the batch root, one signature over that root (shared by every
// digest in the batch), and the Merkle inclusion proof tying the digest
// to the root. Proof.Index is the digest's leaf index within the batch.
type RootAttestation struct {
	Root  merkle.Hash
	Sig   []byte
	Proof merkle.Proof
}

// BatchSignerOptions bound a BatchSigner's flush behavior.
type BatchSignerOptions struct {
	// MaxBatch flushes as soon as this many digests are pending.
	// Default 64.
	MaxBatch int
	// MaxLatency flushes a partial batch this long after its first
	// digest arrived, so a lone audit still completes promptly.
	// Default 2ms.
	MaxLatency time.Duration
	// AfterFunc is the timer seam, defaulting to a time.AfterFunc
	// wrapper. Tests inject a manual trigger here to pin the latency
	// bound deterministically. The returned stop reports whether it
	// prevented the callback from running.
	AfterFunc func(d time.Duration, f func()) (stop func() bool)
}

type batchEntry struct {
	digest [32]byte
	done   chan batchResult
}

type batchResult struct {
	att RootAttestation
	err error
}

// BatchSigner amortizes the verifier's per-transcript signature
// over batches of transcript digests: pending digests become the leaves
// of an internal/merkle tree and only the root is signed. A batch
// flushes when it reaches MaxBatch digests or when its oldest digest
// has waited MaxLatency, whichever comes first; the signing operation
// runs outside the accumulation lock, so under concurrent audit load
// the next batch fills while the previous one signs (group commit).
// It is in-process only, kept for bench's audit-fleet-disk: no command
// links it, and no codec carries its attestations.
//
// Sign is safe for concurrent use.
type BatchSigner struct {
	signer *Signer
	opts   BatchSignerOptions

	mu      sync.Mutex
	pending []batchEntry
	gen     uint64 // batch generation; guards late timer fires
	stop    func() bool
	closed  bool

	batches atomic.Int64
	signed  atomic.Int64
}

// NewBatchSigner wraps signer with batch accumulation.
func NewBatchSigner(signer *Signer, opts BatchSignerOptions) *BatchSigner {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.MaxLatency <= 0 {
		opts.MaxLatency = 2 * time.Millisecond
	}
	if opts.AfterFunc == nil {
		opts.AfterFunc = func(d time.Duration, f func()) func() bool {
			return time.AfterFunc(d, f).Stop
		}
	}
	return &BatchSigner{signer: signer, opts: opts}
}

// Sign enqueues a transcript digest and blocks until the batch holding
// it is signed, returning the root attestation for that digest.
func (b *BatchSigner) Sign(digest [32]byte) (RootAttestation, error) {
	e := batchEntry{digest: digest, done: make(chan batchResult, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return RootAttestation{}, ErrBatchSignerClosed
	}
	b.pending = append(b.pending, e)
	switch {
	case len(b.pending) >= b.opts.MaxBatch:
		batch := b.takeLocked()
		b.mu.Unlock()
		b.flush(batch)
	case len(b.pending) == 1:
		gen := b.gen
		b.stop = b.opts.AfterFunc(b.opts.MaxLatency, func() { b.timerFlush(gen) })
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
	res := <-e.done
	return res.att, res.err
}

// takeLocked detaches the pending batch and cancels its timer. Callers
// hold b.mu.
func (b *BatchSigner) takeLocked() []batchEntry {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.stop != nil {
		b.stop()
		b.stop = nil
	}
	return batch
}

// timerFlush fires when a partial batch hits the latency bound. The
// generation check discards late fires racing a size-bound flush, so a
// freshly started batch is never cut short.
func (b *BatchSigner) timerFlush(gen uint64) {
	b.mu.Lock()
	if gen != b.gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	b.mu.Unlock()
	b.flush(batch)
}

// flush builds the Merkle tree over the batch, signs the root, and
// delivers each entry its inclusion proof. Runs outside b.mu.
func (b *BatchSigner) flush(batch []batchEntry) {
	if len(batch) == 0 {
		return
	}
	leaves := make([][]byte, len(batch))
	for i := range batch {
		leaves[i] = batch[i].digest[:]
	}
	tree, err := merkle.New(leaves)
	var root merkle.Hash
	var sig []byte
	if err == nil {
		root = tree.Root()
		sig, err = b.signer.SignBatchRoot(root)
	}
	if err != nil {
		for i := range batch {
			batch[i].done <- batchResult{err: err}
		}
		return
	}
	b.batches.Add(1)
	b.signed.Add(int64(len(batch)))
	for i := range batch {
		proof, perr := tree.Prove(i)
		if perr != nil {
			batch[i].done <- batchResult{err: perr}
			continue
		}
		batch[i].done <- batchResult{att: RootAttestation{Root: root, Sig: sig, Proof: proof}}
	}
}

// Close flushes any pending batch and fails subsequent Sign calls.
func (b *BatchSigner) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	b.flush(batch)
}

// Batches returns how many roots have been signed.
func (b *BatchSigner) Batches() int64 { return b.batches.Load() }

// Signed returns how many digests those roots covered. Signed/Batches
// is the measured amortization factor.
func (b *BatchSigner) Signed() int64 { return b.signed.Load() }
