package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
)

// batchFixture extends the simnet fixture with a batch-signing copy of
// the verifier. MaxBatch 1 keeps single audits synchronous (no timer)
// while still exercising the full root-signature + proof path.
func batchFixture(t *testing.T) (*fixture, *Verifier) {
	t.Helper()
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.HonestProvider{Site: site})
	bs := crypt.NewBatchSigner(fx.verifier.Public(), crypt.BatchSignerOptions{MaxBatch: 1})
	t.Cleanup(bs.Close)
	return fx, fx.verifier.WithBatchSigner(bs)
}

func TestBatchAttestedAuditAccepted(t *testing.T) {
	fx, bv := batchFixture(t)
	req, err := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 20)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bv.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batch == nil || len(st.Signature) != 0 {
		t.Fatalf("batch verifier produced mode %v", st.Mode())
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if !rep.Accepted {
		t.Fatalf("batch-attested audit rejected: %s", rep.Reason())
	}
	if rep.Attestation != AttestBatch {
		t.Fatalf("attestation mode %v, want batch", rep.Attestation)
	}
	// The same verdict as per-transcript mode, including the timing and
	// distance-bound numbers: only the attestation form differs.
	st2, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := fx.tpa.VerifyAudit(req, fx.ef.Layout, st2)
	if rep2.Attestation != AttestPerTranscript {
		t.Fatalf("attestation mode %v, want per-transcript", rep2.Attestation)
	}
	if rep.Accepted != rep2.Accepted || rep.SegmentsOK != rep2.SegmentsOK ||
		rep.TimingOK != rep2.TimingOK || rep.PositionOK != rep2.PositionOK {
		t.Fatalf("batch verdict %+v differs from per-transcript %+v", rep, rep2)
	}
}

// TestBatchAttestationAdversarial covers the forgery shapes a hostile
// daemon could try against the batch path.
func TestBatchAttestationAdversarial(t *testing.T) {
	fx, bv := batchFixture(t)
	runOne := func() (AuditRequest, SignedTranscript) {
		t.Helper()
		req, err := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 8)
		if err != nil {
			t.Fatal(err)
		}
		st, err := bv.RunAudit(context.Background(), req, fx.conn)
		if err != nil {
			t.Fatal(err)
		}
		return req, st
	}

	t.Run("proof for a leaf not in the tree", func(t *testing.T) {
		// Graft audit B's (valid, signed) attestation onto audit A's
		// transcript: A's digest is not a leaf of B's tree, so the
		// inclusion proof must fail even though the root signature is
		// genuine.
		reqA, stA := runOne()
		_, stB := runOne()
		stA.Batch = stB.Batch
		rep := fx.tpa.VerifyAudit(reqA, fx.ef.Layout, stA)
		if rep.SignatureOK || rep.Accepted {
			t.Fatalf("foreign inclusion proof accepted: %+v", rep)
		}
		if rep.Attestation != AttestBatch {
			t.Fatalf("attestation mode %v", rep.Attestation)
		}
	})

	t.Run("root signed by the wrong key", func(t *testing.T) {
		// A fresh TPA so the genuine root is not already in the
		// verified-root cache (cache hits are sound only because entry
		// requires a valid signature).
		tpa, err := NewTPA(fx.enc, fx.verifier.Public().Public(), fx.tpa.Policy())
		if err != nil {
			t.Fatal(err)
		}
		req, st := runOne()
		rogue, err := crypt.NewSigner()
		if err != nil {
			t.Fatal(err)
		}
		sig, err := rogue.SignBatchRoot(st.Batch.Root)
		if err != nil {
			t.Fatal(err)
		}
		forged := *st.Batch
		forged.RootSig = sig
		st.Batch = &forged
		rep := tpa.VerifyAudit(req, fx.ef.Layout, st)
		if rep.SignatureOK || rep.Accepted {
			t.Fatalf("wrong-key root signature accepted: %+v", rep)
		}
	})

	t.Run("tampered transcript under a valid attestation", func(t *testing.T) {
		req, st := runOne()
		st.Transcript.Rounds[0].RTT += time.Millisecond
		rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
		if rep.SignatureOK || rep.Accepted {
			t.Fatalf("tampered batch-attested transcript accepted: %+v", rep)
		}
	})

	t.Run("per-transcript signature forged as batch", func(t *testing.T) {
		// Presenting a per-transcript signature in the RootSig slot must
		// fail: the domain prefix separates the two signature kinds.
		req, st := runOne()
		plain, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
		if err != nil {
			t.Fatal(err)
		}
		forged := *st.Batch
		forged.RootSig = plain.Signature
		st.Batch = &forged
		tpa, err := NewTPA(fx.enc, fx.verifier.Public().Public(), fx.tpa.Policy())
		if err != nil {
			t.Fatal(err)
		}
		if rep := tpa.VerifyAudit(req, fx.ef.Layout, st); rep.SignatureOK {
			t.Fatalf("plain signature accepted as root signature: %+v", rep)
		}
	})
}

// TestVerifyAuditsMixedModes checks one sweep holding batch-attested,
// per-transcript and tampered transcripts: every report must match its
// sequential VerifyAudit verdict and carry the right attestation mode.
func TestVerifyAuditsMixedModes(t *testing.T) {
	fx, bv := batchFixture(t)
	const nAudits = 9
	jobs := make([]AuditJob, 0, nAudits)
	for i := 0; i < nAudits; i++ {
		req, err := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 8)
		if err != nil {
			t.Fatal(err)
		}
		v := fx.verifier
		if i%2 == 0 {
			v = bv
		}
		st, err := v.RunAudit(context.Background(), req, fx.conn)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, AuditJob{Req: req, Layout: fx.ef.Layout, Signed: st})
	}
	// One tampered transcript of each mode.
	jobs[2].Signed.Transcript.Rounds[0].Segment[0] ^= 0xFF
	jobs[3].Signed.Transcript.Rounds[0].Segment[0] ^= 0xFF

	reports := fx.tpa.VerifyAudits(jobs)
	for i, job := range jobs {
		want := fx.tpa.VerifyAudit(job.Req, job.Layout, job.Signed)
		got := reports[i]
		if got.Accepted != want.Accepted || got.SignatureOK != want.SignatureOK ||
			got.Attestation != want.Attestation || got.SegmentsBad != want.SegmentsBad {
			t.Fatalf("job %d: sweep report %+v differs from sequential %+v", i, got, want)
		}
		wantMode := AttestPerTranscript
		if i%2 == 0 {
			wantMode = AttestBatch
		}
		if got.Attestation != wantMode {
			t.Fatalf("job %d: attestation %v, want %v", i, got.Attestation, wantMode)
		}
		if i == 2 || i == 3 {
			if got.Accepted {
				t.Fatalf("tampered job %d accepted", i)
			}
		} else if !got.Accepted {
			t.Fatalf("honest job %d rejected: %s", i, got.Reason())
		}
	}
}

func TestSignedTranscriptCodecBatch(t *testing.T) {
	fx, bv := batchFixture(t)
	req, err := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bv.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeSignedTranscript(st)
	got, err := DecodeSignedTranscript(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch == nil {
		t.Fatal("attestation lost in round trip")
	}
	if got.Batch.Root != st.Batch.Root || got.Batch.Proof.Index != st.Batch.Proof.Index ||
		!bytes.Equal(got.Batch.RootSig, st.Batch.RootSig) ||
		len(got.Batch.Proof.Steps) != len(st.Batch.Proof.Steps) {
		t.Fatalf("attestation fields drifted: %+v vs %+v", got.Batch, st.Batch)
	}
	if !bytes.Equal(EncodeSignedTranscript(got), enc) {
		t.Fatal("re-encode differs: codec not canonical")
	}
	// The decoded transcript must verify end to end.
	if rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, got); !rep.Accepted {
		t.Fatalf("decoded batch transcript rejected: %s", rep.Reason())
	}
}

// TestVerifierServerAttestationForms: a daemon whose verifier batch-signs
// and one whose verifier signs each transcript are both accepted by the
// same TPA, which was told nothing about either — the form is read off
// the transcript, and the report names it.
func TestVerifierServerAttestationForms(t *testing.T) {
	f := newDaemonFixture(t, 250*time.Millisecond)
	proverAddr, stopProver := startServer(t, &cloud.HonestProvider{Site: f.site}, false)
	defer stopProver()
	pool := &ProverPool{DialTimeout: time.Second}
	defer pool.Close()
	bs := crypt.NewBatchSigner(f.signer, crypt.BatchSignerOptions{MaxBatch: 1})
	defer bs.Close()

	daemons := map[string]struct {
		verifier *Verifier
		want     AttestationMode
	}{
		"batch daemon": {f.verifier.WithBatchSigner(bs), AttestBatch},
		"solo daemon":  {f.verifier, AttestPerTranscript},
	}
	for name, d := range daemons {
		d := d
		t.Run(name, func(t *testing.T) {
			addr, stop := startVerifierd(t, &PooledRunner{Verifier: d.verifier, Addr: proverAddr, Pool: pool})
			defer stop()
			remote := dialMux(t, addr)
			defer remote.Close()
			rep, err := f.audit(context.Background(), remote, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Accepted {
				t.Fatalf("audit rejected: %s", rep.Reason())
			}
			if rep.Attestation != d.want {
				t.Fatalf("report names attestation %q, want %q", rep.Attestation, d.want)
			}
		})
	}
}
