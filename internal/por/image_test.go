package por

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockfile"
	"repro/internal/store"
)

// committedStore encodes file with e into a store of shardBytes-byte
// shards, commits it and opens it.
func committedStore(t *testing.T, e *Encoder, file []byte, shardBytes int64) *store.Store {
	t.Helper()
	layout, err := blockfile.NewLayout(e.Params(), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: shardBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := e.EncodeStream("f", bytes.NewReader(file), int64(len(file)), w); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestGatherGroupMatchesReadAt checks every chunk group's gathered bytes
// before decryption — where a block from the wrong slot is still visible,
// before Reed–Solomon repairs the plaintext — through gatherGroup, the
// helper extraction calls: out of an in-memory source and out of a
// committed store's lent shard mappings (where the platform lends them),
// against one ReadAt per block at StoredBlockOffset, in the paper's
// 16-byte geometry and the 4-byte test one.
func TestGatherGroupMatchesReadAt(t *testing.T) {
	for _, p := range []blockfile.Params{blockfile.DefaultParams(), smallParams()} {
		e := NewEncoder([]byte("gather-group-master")).WithParams(p)
		file := testFile(101, 600_000)
		enc, err := e.Encode("f", file)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []struct {
			name string
			r    any
		}{
			{"memory", &MemTarget{B: enc.Data}},
			{"store", committedStore(t, e, file, 32<<10)},
		} {
			name := fmt.Sprintf("%d-byte-blocks/%s", p.BlockSize, src.name)
			sc, err := e.newStreamCoder("f", enc.Layout)
			if err != nil {
				t.Fatal(err)
			}
			lend, err := sc.lend(src.r, enc.Layout.EncodedBytes, name)
			if err != nil {
				t.Fatal(err)
			}
			groupBlocks := sc.groupChunks * enc.Layout.ChunkTotal
			var groups int
			want, got := make([]byte, groupBlocks*p.BlockSize), make([]byte, groupBlocks*p.BlockSize)
			srcs := make([]uint64, groupBlocks)
			err = lend(func(img *image) error {
				if img == nil {
					t.Logf("%s: no images on this platform", name)
					return nil
				}
				for first := int64(0); first < enc.Layout.Chunks; first += int64(sc.groupChunks) {
					n := int(min(int64(sc.groupChunks), enc.Layout.Chunks-first)) * enc.Layout.ChunkTotal
					if err := sc.gatherGroup(bytes.NewReader(enc.Data), nil, first, want[:n*p.BlockSize], srcs[:n]); err != nil {
						return err
					}
					if err := sc.gatherGroup(nil, img, first, got[:n*p.BlockSize], srcs[:n]); err != nil {
						return err
					}
					if !bytes.Equal(got[:n*p.BlockSize], want[:n*p.BlockSize]) {
						return fmt.Errorf("chunk group at chunk %d: gathered blocks differ from per-block ReadAt", first)
					}
					groups++
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s: %v", name, err)
			} else if groups < 2 {
				t.Fatalf("%s: %d chunk groups, want several", name, groups)
			}
		}
	}
}

// TestPlaceSlotTwiceFails: an image's placement refuses a slot placed a
// second time, in the same batch or a later one. In a store writer's loan
// the refusal latches, so Commit returns it and Open finds the encode
// incomplete.
func TestPlaceSlotTwiceFails(t *testing.T) {
	e := NewEncoder([]byte("place-twice-master"))
	layout, err := blockfile.NewLayout(e.Params(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	bs := layout.BlockSize
	for _, batches := range [][][]uint64{{{3, 9, 3}}, {{3, 9}, {4, 3}}} {
		dir := t.TempDir()
		w, err := store.Create(dir, "f", layout, store.Options{ShardTargetBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, tgt := range []StreamTarget{NewMemTarget(layout.EncodedBytes), w} {
			sc, err := e.newStreamCoder("f", layout)
			if err != nil {
				t.Fatal(err)
			}
			lend, err := sc.lend(tgt, layout.EncodedBytes, "target")
			if err != nil {
				t.Fatal(err)
			}
			lent := false
			err = lend(func(img *image) error {
				if lent = img != nil; !lent {
					return nil // the writer lends nothing on this platform
				}
				p := &placement{image: img, seen: make([]uint64, (layout.TotalBlocks+63)/64)}
				for _, slots := range batches {
					if err := p.place(make([]byte, len(slots)*bs), slots); err != nil {
						return err
					}
				}
				return nil
			})
			if lent && (err == nil || !strings.Contains(err.Error(), "slot 3 placed twice")) {
				t.Fatalf("%T, batches %v: err = %v, want slot 3 placed twice", tgt, batches, err)
			}
		}
		if _, ok := any(w).(imageLender); !ok {
			continue // the writer lends nothing on this platform
		}
		if _, cerr := w.Commit(); cerr == nil || !strings.Contains(cerr.Error(), "placed twice") {
			t.Fatalf("batches %v: Commit after the refusal: %v", batches, cerr)
		}
		if _, err := store.Open(dir); !errors.Is(err, store.ErrIncomplete) {
			t.Fatalf("batches %v: Open: %v, want ErrIncomplete", batches, err)
		}
	}
}
