package core

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crypt"
)

// The batch attestation is in-process only: these tests cover the path
// bench's audit-fleet-disk drives, and that the wire never carries it.

// batchFixture extends the simnet fixture with a batch-signing copy of
// the verifier. MaxBatch 1 keeps single audits synchronous (no timer)
// while still exercising the full root-signature + proof path.
func batchFixture(t *testing.T) (*fixture, *Verifier) {
	t.Helper()
	_, ef := encodeTestFile(t)
	site := honestSite(t, ef)
	fx := newFixture(t, &cloud.HonestProvider{Site: site})
	bs := crypt.NewBatchSigner(fx.signer, crypt.BatchSignerOptions{MaxBatch: 1})
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
		t.Fatalf("batch verifier produced batch=%v, %d signature bytes", st.Batch != nil, len(st.Signature))
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
	if !rep.Accepted {
		t.Fatalf("batch-attested audit rejected: %s", rep.Reason())
	}
	// The same verdict as per-transcript mode, including the timing and
	// distance-bound numbers: only the attestation form differs.
	st2, err := fx.verifier.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := fx.tpa.VerifyAudit(req, fx.ef.Layout, st2)
	if rep.Accepted != rep2.Accepted || rep.SegmentsOK != rep2.SegmentsOK ||
		rep.TimingOK != rep2.TimingOK || rep.PositionOK != rep2.PositionOK {
		t.Fatalf("batch verdict %+v differs from per-transcript %+v", rep, rep2)
	}
}

// TestBatchAttestationAdversarial covers the forgery shapes a hostile
// caller could try against the batch path.
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
	})

	t.Run("root signed by the wrong key", func(t *testing.T) {
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
		rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
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
		if rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st); rep.SignatureOK {
			t.Fatalf("plain signature accepted as root signature: %+v", rep)
		}
	})
}

// TestVerifyAuditsMixedModes verifies, one after another, batch-attested,
// per-transcript and tampered transcripts through one TPA: each honest
// one is accepted, and a tampered transcript of either form is rejected.
func TestVerifyAuditsMixedModes(t *testing.T) {
	fx, bv := batchFixture(t)
	const nAudits = 9
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
		tampered := i == 2 || i == 3 // one of each form
		if tampered {
			st.Transcript.Rounds[0].Segment[0] ^= 0xFF
		}
		rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st)
		if tampered {
			if rep.Accepted || rep.SignatureOK || rep.SegmentsBad != 1 {
				t.Fatalf("tampered audit %d: %+v", i, rep)
			}
		} else if !rep.Accepted || rep.SegmentsOK != 8 {
			t.Fatalf("honest audit %d rejected: %s", i, rep.Reason())
		}
	}
}

// legacyAttestationSection is the optional section earlier versions of
// the codec appended after the signature of a batch-attested transcript,
// with its length prefix: root ‖ len(sig) ‖ sig ‖ leaf index ‖ step
// count ‖ steps, each step an orientation byte and the sibling hash.
func legacyAttestationSection(att BatchAttestation) []byte {
	var b []byte
	b = append(b, att.Root[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(att.RootSig)))
	b = append(b, att.RootSig...)
	b = binary.BigEndian.AppendUint32(b, uint32(att.Proof.Index))
	b = binary.BigEndian.AppendUint32(b, uint32(len(att.Proof.Steps)))
	for _, s := range att.Proof.Steps {
		flag := byte(0)
		if s.Left {
			flag = 1
		}
		b = append(b, flag)
		b = append(b, s.Sibling[:]...)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
}

// TestWireCarriesOnlySignatures: the wire fails closed on the batch
// form. A batch-attested transcript encoded, decoded and verified is
// rejected as unsigned, and an encoding that carries the attestation
// section earlier codecs wrote is refused outright.
func TestWireCarriesOnlySignatures(t *testing.T) {
	fx, bv := batchFixture(t)
	req, err := fx.tpa.NewRequest(testFileID, fx.ef.Layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bv.RunAudit(context.Background(), req, fx.conn)
	if err != nil {
		t.Fatal(err)
	}
	if rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, st); !rep.Accepted {
		t.Fatalf("batch-attested audit rejected in process: %s", rep.Reason())
	}

	got, err := DecodeSignedTranscript(EncodeSignedTranscript(st))
	if err != nil {
		t.Fatal(err)
	}
	rep := fx.tpa.VerifyAudit(req, fx.ef.Layout, got)
	if rep.Accepted || rep.SignatureOK || rep.Reason() != "transcript signature invalid" {
		t.Fatalf("batch-attested transcript over the wire: accepted=%v signatureOK=%v reason %q, want rejected with only %q",
			rep.Accepted, rep.SignatureOK, rep.Reason(), "transcript signature invalid")
	}

	unsigned := st
	unsigned.Batch = nil
	legacy := append(EncodeSignedTranscript(unsigned), legacyAttestationSection(*st.Batch)...)
	if _, err := DecodeSignedTranscript(legacy); !errors.Is(err, ErrBadTranscript) {
		t.Fatalf("encoding with an attestation section decoded with error %v, want ErrBadTranscript", err)
	}
}
