package dpor

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/merkle"
)

const bs = 64

func newPair(t testing.TB, size int) (*Client, *Store, []byte) {
	t.Helper()
	c, err := NewClient([]byte("dpor-master"), "file-1", bs)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(data)
	leaves, err := c.Init(data)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore("file-1", leaves)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, data
}

func TestInitAndReadBack(t *testing.T) {
	c, s, data := newPair(t, 1000)
	if s.Len() != c.NumBlocks() {
		t.Fatalf("store %d blocks, client %d", s.Len(), c.NumBlocks())
	}
	if !merkle.Equal(c.Root(), s.Root()) {
		t.Fatal("roots differ after init")
	}
	var got []byte
	for i := 0; i < c.NumBlocks(); i++ {
		plain, err := c.Read(s, i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got = append(got, plain...)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("read-back mismatch")
	}
}

func TestLeavesAreEncrypted(t *testing.T) {
	c, _ := NewClient([]byte("m"), "f", bs)
	plain := bytes.Repeat([]byte("SECRET!!"), bs/8)
	leaves, err := c.Init(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if bytes.Contains(l, []byte("SECRET!!")) {
			t.Fatal("plaintext visible in leaf")
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	c, s, _ := newPair(t, 1000)
	newBlock := bytes.Repeat([]byte{0xAB}, bs)
	if err := c.Update(s, 3, newBlock); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newBlock) {
		t.Fatal("update not visible")
	}
	// Other blocks still verify under the new root.
	if _, err := c.Read(s, 0); err != nil {
		t.Fatalf("block 0 broken after update: %v", err)
	}
}

func TestUpdateBumpsVersionAndChangesCiphertext(t *testing.T) {
	c, s, _ := newPair(t, 500)
	same := bytes.Repeat([]byte{7}, bs)
	if err := c.Update(s, 1, same); err != nil {
		t.Fatal(err)
	}
	leaf1, _, _ := s.Read(1)
	if err := c.Update(s, 1, same); err != nil {
		t.Fatal(err)
	}
	leaf2, _, _ := s.Read(1)
	if bytes.Equal(leaf1, leaf2) {
		t.Fatal("same plaintext produced identical leaves across versions (keystream reuse)")
	}
}

func TestAppendGrowsFile(t *testing.T) {
	c, s, _ := newPair(t, 1000)
	before := c.NumBlocks()
	extra := bytes.Repeat([]byte{0xCD}, bs)
	for i := 0; i < 5; i++ {
		if err := c.Append(s, extra); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if c.NumBlocks() != before+5 || s.Len() != before+5 {
		t.Fatalf("counts: client %d store %d", c.NumBlocks(), s.Len())
	}
	got, err := c.Read(s, before+4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, extra) {
		t.Fatal("appended block mismatch")
	}
}

func TestInterleavedUpdatesAndAppends(t *testing.T) {
	c, s, _ := newPair(t, 2000)
	rng := rand.New(rand.NewSource(9))
	for op := 0; op < 60; op++ {
		blk := make([]byte, bs)
		rng.Read(blk)
		if rng.Intn(2) == 0 {
			if err := c.Update(s, rng.Intn(c.NumBlocks()), blk); err != nil {
				t.Fatalf("op %d update: %v", op, err)
			}
		} else {
			if err := c.Append(s, blk); err != nil {
				t.Fatalf("op %d append: %v", op, err)
			}
		}
	}
	// Full audit after the op storm.
	ok, err := c.Audit(s, []byte("post-storm"), c.NumBlocks())
	if err != nil || ok != c.NumBlocks() {
		t.Fatalf("audit ok=%d/%d err=%v", ok, c.NumBlocks(), err)
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	c, s, _ := newPair(t, 1000)
	if err := s.Corrupt(2, bytes.Repeat([]byte{0xFF}, bs+versionPrefix)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(s, 2); !errors.Is(err, ErrProof) {
		t.Fatalf("got %v, want ErrProof", err)
	}
}

func TestAuditDetectsCorruption(t *testing.T) {
	c, s, _ := newPair(t, 4000)
	_ = s.Corrupt(5, bytes.Repeat([]byte{1}, bs+versionPrefix))
	ok, err := c.Audit(s, []byte("n"), c.NumBlocks())
	if err == nil {
		t.Fatal("audit missed corruption at full coverage")
	}
	if ok != c.NumBlocks()-1 {
		t.Fatalf("ok=%d of %d", ok, c.NumBlocks())
	}
}

func TestStaleRootRejected(t *testing.T) {
	// A server that rolls back to an old state must fail verification:
	// capture pre-update leaves, apply an update, then serve the old
	// leaf — the client's new root rejects it.
	c, s, _ := newPair(t, 500)
	oldLeaf, _, _ := s.Read(0)
	if err := c.Update(s, 0, bytes.Repeat([]byte{9}, bs)); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(0, oldLeaf); err != nil { // rollback attack
		t.Fatal(err)
	}
	if _, err := c.Read(s, 0); !errors.Is(err, ErrProof) {
		t.Fatalf("rollback accepted: %v", err)
	}
}

func TestUpdateWrongSizeRejected(t *testing.T) {
	c, s, _ := newPair(t, 500)
	if err := c.Update(s, 0, []byte("short")); err == nil {
		t.Fatal("short update accepted")
	}
	if err := c.Append(s, []byte("short")); err == nil {
		t.Fatal("short append accepted")
	}
}

func TestOutOfRangeOps(t *testing.T) {
	c, s, _ := newPair(t, 500)
	if _, err := c.Read(s, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if _, err := c.Read(s, s.Len()); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if err := s.Write(99, []byte("x")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if err := s.Corrupt(-1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient([]byte("m"), "f", 0); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestEncodeDecodeResponse(t *testing.T) {
	_, s, _ := newPair(t, 3000)
	leaf, proof, err := s.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeResponse(leaf, proof)
	gotLeaf, gotProof, err := DecodeResponse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLeaf, leaf) || gotProof.Index != proof.Index || len(gotProof.Steps) != len(proof.Steps) {
		t.Fatal("response round trip mismatch")
	}
	for i := range proof.Steps {
		if gotProof.Steps[i] != proof.Steps[i] {
			t.Fatalf("step %d mismatch", i)
		}
	}
	// Malformed blobs.
	for _, bad := range [][]byte{nil, {1}, blob[:5], blob[:len(blob)-1]} {
		if _, _, err := DecodeResponse(bad); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("bad blob accepted: %v", err)
		}
	}
}

func BenchmarkDPORUpdate(b *testing.B) {
	c, s, _ := newPair(b, 1<<16)
	blk := make([]byte, bs)
	rand.New(rand.NewSource(1)).Read(blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Update(s, i%c.NumBlocks(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPORAudit100(b *testing.B) {
	c, s, _ := newPair(b, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Audit(s, []byte(fmt.Sprintf("n-%d", i)), 100); err != nil {
			b.Fatal(err)
		}
	}
}
