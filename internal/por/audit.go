package por

import (
	"fmt"

	"repro/internal/blockfile"
	"repro/internal/crypt"
)

// Challenge is a POR audit request: a set of distinct segment indices
// derived from the client's challenge key and a fresh nonce (§V-B: the
// verifier's random index set c = {c_1..c_k}).
type Challenge struct {
	FileID  string
	Nonce   []byte
	Indices []uint64
}

// NewChallenge derives a k-index challenge for the file from the master
// secret and nonce. Deriving (rather than sampling) the indices lets the
// TPA recompute and cross-check the challenged set from the signed
// transcript.
func (e *Encoder) NewChallenge(fileID string, layout blockfile.Layout, nonce []byte, k int) (Challenge, error) {
	chal := crypt.DeriveKey(e.master, crypt.LabelChal, fileID)
	idx, err := crypt.ChallengeIndices(chal, nonce, uint64(layout.Segments), k)
	if err != nil {
		return Challenge{}, fmt.Errorf("derive challenge: %w", err)
	}
	n := make([]byte, len(nonce))
	copy(n, nonce)
	return Challenge{FileID: fileID, Nonce: n, Indices: idx}, nil
}

// Store is the prover-side view of an encoded file: enough to serve
// segment reads without any key material.
type Store struct {
	FileID string
	Layout blockfile.Layout
	Data   []byte
}

// NewStore wraps encoded bytes for serving. The data slice is retained,
// not copied: provers may hold multi-gigabyte files.
func NewStore(f *EncodedFile) *Store {
	return &Store{FileID: f.FileID, Layout: f.Layout, Data: f.Data}
}

// ReadSegment returns segment i including its embedded tag.
func (s *Store) ReadSegment(i int64) ([]byte, error) {
	off, err := s.Layout.SegmentOffset(i)
	if err != nil {
		return nil, fmt.Errorf("%w: %d", ErrBadSegment, i)
	}
	out := make([]byte, s.Layout.SegmentSize())
	copy(out, s.Data[off:off+int64(s.Layout.SegmentSize())])
	return out, nil
}

// Response carries the prover's answers to a challenge, in challenge
// order.
type Response struct {
	FileID   string
	Segments [][]byte // each is segment payload ‖ tag
}

// Respond services an entire challenge against the store.
func (s *Store) Respond(ch Challenge) (Response, error) {
	if ch.FileID != s.FileID {
		return Response{}, fmt.Errorf("por: challenge for %q served by store of %q", ch.FileID, s.FileID)
	}
	resp := Response{FileID: s.FileID, Segments: make([][]byte, 0, len(ch.Indices))}
	for _, i := range ch.Indices {
		seg, err := s.ReadSegment(int64(i))
		if err != nil {
			return Response{}, err
		}
		resp.Segments = append(resp.Segments, seg)
	}
	return resp, nil
}

// VerifyResponse checks every returned segment tag. It returns the number
// of segments that verified and the first failure in challenge order (nil
// when all pass), so callers can report partial corruption. The tag
// checks run on the encoder's worker pool via VerifySegments.
func (e *Encoder) VerifyResponse(layout blockfile.Layout, ch Challenge, resp Response) (int, error) {
	if resp.FileID != ch.FileID {
		return 0, fmt.Errorf("por: response for %q against challenge for %q", resp.FileID, ch.FileID)
	}
	if len(resp.Segments) != len(ch.Indices) {
		return 0, fmt.Errorf("%w: %d segments for %d indices", ErrBadEncoding, len(resp.Segments), len(ch.Indices))
	}
	indices := make([]int64, len(ch.Indices))
	for j, i := range ch.Indices {
		indices[j] = int64(i)
	}
	verdicts, err := e.VerifySegments(ch.FileID, layout, indices, resp.Segments)
	if err != nil {
		return 0, err
	}
	ok := 0
	var firstErr error
	for j, verr := range verdicts {
		if verr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("segment %d: %w", ch.Indices[j], verr)
			}
			continue
		}
		ok++
	}
	return ok, firstErr
}
