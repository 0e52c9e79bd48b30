package merkle

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestNewEmpty(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("got %v", err)
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100} {
		tr, err := New(leaves(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		root := tr.Root()
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if err := Verify(root, []byte(fmt.Sprintf("leaf-%d", i)), p); err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongData(t *testing.T) {
	tr, _ := New(leaves(10))
	p, _ := tr.Prove(3)
	if err := Verify(tr.Root(), []byte("leaf-4"), p); !errors.Is(err, ErrProofFailed) {
		t.Fatalf("got %v", err)
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	tr, _ := New(leaves(10))
	p, _ := tr.Prove(3)
	var fake Hash
	if err := Verify(fake, []byte("leaf-3"), p); !errors.Is(err, ErrProofFailed) {
		t.Fatalf("got %v", err)
	}
}

func TestVerifyRejectsSplicedProof(t *testing.T) {
	// A proof for one index must not verify another leaf's data even if
	// the attacker relabels the index.
	tr, _ := New(leaves(16))
	p3, _ := tr.Prove(3)
	p3.Index = 5
	if err := Verify(tr.Root(), []byte("leaf-5"), p3); err == nil {
		t.Fatal("spliced proof accepted")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tr, _ := New(leaves(4))
	if _, err := tr.Prove(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if _, err := tr.Prove(4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
}

func TestDistinctLeavesDistinctRootsProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) == 0 || len(b) == 0 || string(a) == string(b) {
			return true
		}
		ta, _ := New([][]byte{a})
		tb, _ := New([][]byte{b})
		return ta.Root() != tb.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// A single leaf equal to an interior encoding must not collide: the
	// root of [x] is LeafHash(x), never a node hash.
	tr2, _ := New([][]byte{[]byte("a"), []byte("b")})
	interior := tr2.Root()
	tr1, _ := New([][]byte{interior[:]})
	if tr1.Root() == interior {
		t.Fatal("leaf/node domains collide")
	}
}

func BenchmarkMerkleProve(b *testing.B) {
	tree, err := New(leaves(1 << 14))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Prove(i % (1 << 14)); err != nil {
			b.Fatal(err)
		}
	}
}
