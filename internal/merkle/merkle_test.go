package merkle

import (
	"errors"
	"fmt"
	"math/rand"
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

func TestUpdateChangesRootAndReVerifies(t *testing.T) {
	tr, _ := New(leaves(9))
	oldRoot := tr.Root()
	if err := tr.Update(4, []byte("new-content")); err != nil {
		t.Fatal(err)
	}
	if Equal(oldRoot, tr.Root()) {
		t.Fatal("update did not change root")
	}
	p, _ := tr.Prove(4)
	if err := Verify(tr.Root(), []byte("new-content"), p); err != nil {
		t.Fatal(err)
	}
	// Untouched leaves still verify.
	for _, i := range []int{0, 3, 5, 8} {
		p, _ := tr.Prove(i)
		if err := Verify(tr.Root(), []byte(fmt.Sprintf("leaf-%d", i)), p); err != nil {
			t.Fatalf("leaf %d broken after update: %v", i, err)
		}
	}
}

func TestUpdateMatchesRebuild(t *testing.T) {
	// O(log n) path update must agree with a from-scratch build.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 8, 13, 32, 57} {
		ls := leaves(n)
		tr, _ := New(ls)
		for trial := 0; trial < 20; trial++ {
			i := rng.Intn(n)
			content := []byte(fmt.Sprintf("upd-%d-%d", trial, i))
			ls[i] = content
			if err := tr.Update(i, content); err != nil {
				t.Fatal(err)
			}
			fresh, _ := New(ls)
			if !Equal(tr.Root(), fresh.Root()) {
				t.Fatalf("n=%d trial=%d: incremental root diverges", n, trial)
			}
		}
	}
}

func TestUpdateOutOfRange(t *testing.T) {
	tr, _ := New(leaves(4))
	if err := tr.Update(9, []byte("x")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
}

func TestAppend(t *testing.T) {
	ls := leaves(5)
	tr, _ := New(ls)
	tr.Append([]byte("leaf-5"))
	if tr.Len() != 6 {
		t.Fatalf("Len=%d", tr.Len())
	}
	fresh, _ := New(leaves(6))
	if !Equal(tr.Root(), fresh.Root()) {
		t.Fatal("append root diverges from rebuild")
	}
	p, _ := tr.Prove(5)
	if err := Verify(tr.Root(), []byte("leaf-5"), p); err != nil {
		t.Fatal(err)
	}
}

func TestRootAfterUpdateMatchesServerUpdate(t *testing.T) {
	// The stateless-client flow: verify old proof, derive new root
	// locally, compare to the server's tree after it applies the write.
	tr, _ := New(leaves(12))
	p, _ := tr.Prove(7)
	if err := Verify(tr.Root(), []byte("leaf-7"), p); err != nil {
		t.Fatal(err)
	}
	predicted := RootAfterUpdate([]byte("v2"), p)
	if err := tr.Update(7, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if !Equal(predicted, tr.Root()) {
		t.Fatal("client-predicted root differs from server root")
	}
}

func TestDistinctLeavesDistinctRootsProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) == 0 || len(b) == 0 || string(a) == string(b) {
			return true
		}
		ta, _ := New([][]byte{a})
		tb, _ := New([][]byte{b})
		return !Equal(ta.Root(), tb.Root())
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
	if Equal(tr1.Root(), interior) {
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

func BenchmarkMerkleUpdate(b *testing.B) {
	tree, err := New(leaves(1 << 14))
	if err != nil {
		b.Fatal(err)
	}
	blk := make([]byte, 72)
	rand.New(rand.NewSource(1)).Read(blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Update(i%(1<<14), blk); err != nil {
			b.Fatal(err)
		}
	}
}
