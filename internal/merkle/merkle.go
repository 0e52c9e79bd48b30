// Package merkle implements the static binary Merkle hash tree behind
// batch transcript attestation: a verifier that signs a window of audit
// transcripts at once signs only the tree's root, and hands each
// transcript its inclusion proof (crypt/batch.go), so one Ed25519
// signature covers the whole batch and the TPA checks any transcript
// alone against the signed root. It is in-process only, kept for
// bench's audit-fleet-disk: no shipped command and no wire codec uses it.
//
// The tree hashes leaves with a domain-separated SHA-256 (leaf vs node
// prefixes prevent second-preimage splices). Odd nodes are promoted to
// the next level unchanged, so trees of any size are well-defined.
// Proofs carry the sibling path plus left/right orientation bits.
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// Errors reported by tree operations.
var (
	ErrEmpty       = errors.New("merkle: tree has no leaves")
	ErrOutOfRange  = errors.New("merkle: leaf index out of range")
	ErrProofFailed = errors.New("merkle: proof verification failed")
)

// Hash is a node digest.
type Hash = [32]byte

// LeafHash hashes leaf content with the leaf domain prefix.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Tree is a Merkle tree over a fixed leaf set; nothing modifies it
// after New returns.
type Tree struct {
	// levels[0] is the leaf level; levels[len-1] has exactly one node.
	levels [][]Hash
}

// New builds a tree over the given leaf contents.
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmpty
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	t := &Tree{levels: [][]Hash{level}}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.levels[0]) }

// Root returns the current root hash.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// ProofStep is one sibling on the path to the root.
type ProofStep struct {
	Sibling Hash
	// Left reports that the sibling sits to the left of the running
	// hash.
	Left bool
}

// Proof authenticates one leaf against a root.
type Proof struct {
	Index int
	Steps []ProofStep
}

// Prove returns the authentication path for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.Len() {
		return Proof{}, fmt.Errorf("%w: %d of %d", ErrOutOfRange, i, t.Len())
	}
	p := Proof{Index: i}
	idx := i
	for level := 0; level < len(t.levels)-1; level++ {
		cur := t.levels[level]
		var sib int
		if idx%2 == 0 {
			sib = idx + 1
		} else {
			sib = idx - 1
		}
		if sib < len(cur) {
			p.Steps = append(p.Steps, ProofStep{Sibling: cur[sib], Left: sib < idx})
		}
		// Promoted odd nodes contribute no step.
		idx /= 2
	}
	return p, nil
}

// Verify checks that leafData at the proof's index hashes up to root.
func Verify(root Hash, leafData []byte, p Proof) error {
	h := LeafHash(leafData)
	for _, s := range p.Steps {
		if s.Left {
			h = nodeHash(s.Sibling, h)
		} else {
			h = nodeHash(h, s.Sibling)
		}
	}
	if h != root {
		return ErrProofFailed
	}
	return nil
}
