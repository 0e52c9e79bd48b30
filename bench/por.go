package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/blockfile"
	"repro/internal/por"
	"repro/internal/store"
)

// encodeStore is the owner-side write path: EncodeStream into a fresh
// store in dir, then Commit.
func encodeStore(enc *por.Encoder, fileID string, r io.Reader, size int64, dir string) (store.Manifest, error) {
	layout, err := blockfile.NewLayout(enc.Params(), size)
	if err != nil {
		return store.Manifest{}, err
	}
	w, err := store.Create(dir, fileID, layout, store.Options{})
	if err != nil {
		return store.Manifest{}, err
	}
	defer w.Close()
	if _, err := enc.EncodeStream(fileID, r, size, w); err != nil {
		return store.Manifest{}, err
	}
	man, err := w.Commit()
	if err != nil {
		return store.Manifest{}, err
	}
	return man, w.Close()
}

// porFixture is the owner's side of both POR workloads: a seeded input
// file on disk, mapped read-only so the bytes extraction must reproduce
// are at hand without sitting in the Go heap whose peak the run reports.
type porFixture struct {
	enc      *por.Encoder
	fileID   string
	size     int64
	layout   blockfile.Layout
	inPath   string
	want     []byte // mmap of inPath
	storeDir string // por-setup: rewritten each iteration; por-retrieve: the clean store
	damaged  string // por-retrieve: a copy of storeDir with seeded damage
	outPath  string
}

func newPorFixture(seed int64, dir string, size int64, retrieve bool) (fx *porFixture, err error) {
	fx = &porFixture{
		enc:      por.NewEncoder([]byte("bench-master-" + strconv.FormatInt(seed, 10))),
		fileID:   "bench-por",
		size:     size,
		inPath:   filepath.Join(dir, "input.bin"),
		storeDir: filepath.Join(dir, "store"),
		damaged:  filepath.Join(dir, "damaged"),
		outPath:  filepath.Join(dir, "extracted.bin"),
	}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if fx.layout, err = blockfile.NewLayout(fx.enc.Params(), size); err != nil {
		return fx, err
	}
	if err = removeAll(fx.inPath, fx.storeDir, fx.damaged, fx.outPath); err != nil {
		return fx, err
	}
	in, err := os.Create(fx.inPath)
	if err != nil {
		return fx, err
	}
	if _, err = io.Copy(in, seededData(seed, size)); err != nil {
		in.Close()
		return fx, err
	}
	if err = in.Close(); err != nil {
		return fx, err
	}
	in, err = os.Open(fx.inPath)
	if err != nil {
		return fx, err
	}
	defer in.Close()
	if fx.want, err = syscall.Mmap(int(in.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED); err != nil {
		return fx, fmt.Errorf("mmap input: %w", err)
	}
	if !retrieve {
		return fx, nil
	}
	if _, err = encodeStore(fx.enc, fx.fileID, in, size, fx.storeDir); err != nil {
		return fx, err
	}
	if err = copyDir(fx.storeDir, fx.damaged); err != nil {
		return fx, err
	}
	return fx, fx.damage(seed)
}

func (fx *porFixture) close() {
	if fx.want != nil {
		_ = syscall.Munmap(fx.want) // unmapping a mapping we own cannot fail
	}
}

// removeAll unlinks what an earlier build or iteration left behind. The
// harness never truncates a file it wrote before: ext4 takes a rewrite
// after O_TRUNC for "replace by truncate" and writes the new contents to
// the disk as the file is closed, which turned every iteration into as
// many megabytes of host disk traffic (768 MB in one por-setup run) and
// its time into the disk's. A file that is unlinked while its pages are
// still dirty costs no disk write at all.
func removeAll(paths ...string) error {
	for _, p := range paths {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// damage inverts one stored block in each of chunks/4 seeded segments of
// the damaged store. A bad block makes its whole segment suspect, and the
// block permutation spreads a segment's blocks over as many chunks, so
// most chunks take the full Reed-Solomon decoder with one to a handful of
// erasures each — far inside the 32-erasure budget.
func (fx *porFixture) damage(seed int64) error {
	st, err := store.Open(fx.damaged)
	if err != nil {
		return err
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	block := make([]byte, fx.layout.BlockSize)
	for i := int64(0); i < fx.layout.Chunks/4+1; i++ {
		off, err := fx.layout.SegmentOffset(rng.Int63n(fx.layout.Segments))
		if err != nil {
			return err
		}
		off += int64(rng.Intn(fx.layout.SegmentBlocks) * fx.layout.BlockSize)
		if _, err := st.ReadAt(block, off); err != nil {
			return err
		}
		for j := range block {
			block[j] ^= 0xff
		}
		if _, err := st.WriteAt(block, off); err != nil {
			return err
		}
	}
	return nil
}

// encodeOnce is one por-setup iteration: the input file through
// EncodeStream into a store, committed.
func (fx *porFixture) encodeOnce(rec *recorder, op int32) (man store.Manifest, err error) {
	root := rec.begin(spPorSetup, -1, op)
	defer rec.end(root)
	in, err := os.Open(fx.inPath)
	if err != nil {
		return man, err
	}
	defer in.Close()
	s := rec.begin(spStoreCreate, root, op)
	w, err := store.Create(fx.storeDir, fx.fileID, fx.layout, store.Options{})
	rec.end(s)
	if err != nil {
		return man, err
	}
	defer w.Close()
	s = rec.begin(spEncodeStream, root, op)
	_, err = fx.enc.EncodeStream(fx.fileID, in, fx.size, w)
	rec.end(s)
	if err != nil {
		return man, err
	}
	s = rec.begin(spStoreCommit, root, op)
	man, err = w.Commit()
	rec.end(s)
	if err != nil {
		return man, err
	}
	return man, w.Close()
}

// sameShards reports whether two commits produced identical shard
// contents (by length and CRC-32C). Encoding is deterministic, so every
// iteration must match the one whose store was extracted and compared.
func sameShards(a, b store.Manifest) bool {
	if len(a.Shards) != len(b.Shards) || a.EncodedBytes != b.EncodedBytes {
		return false
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			return false
		}
	}
	return true
}

// checkWriter is the extraction target: it passes writes through to the
// output file and compares each against the original bytes as they
// arrive (a memcmp of the whole file costs about 1 % of an extraction).
type checkWriter struct {
	f        *os.File
	want     []byte
	written  atomic.Int64
	mismatch atomic.Bool
}

func (c *checkWriter) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(c.want)) || !bytes.Equal(p, c.want[off:off+int64(len(p))]) {
		c.mismatch.Store(true)
	}
	c.written.Add(int64(len(p)))
	return c.f.WriteAt(p, off)
}

// extractOnce is one por-retrieve pass over the store in dir: Open,
// Verify, ExtractStream to a file. Verify must pass on the clean store
// and report corruption on the damaged one; the extracted bytes must be
// the input either way.
func (fx *porFixture) extractOnce(dir string, damaged bool, rec *recorder, op int32) (time.Duration, error) {
	kind := spRetrieveClean
	if damaged {
		kind = spRetrieveDamaged
	}
	if err := removeAll(fx.outPath); err != nil { // untimed: see removeAll
		return 0, err
	}
	start := time.Now()
	root := rec.begin(kind, -1, op)
	defer rec.end(root)
	s := rec.begin(spStoreOpen, root, op)
	st, err := store.Open(dir)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	s = rec.begin(spStoreVerify, root, op)
	verr := st.Verify()
	rec.end(s)
	switch {
	case damaged && !errors.Is(verr, store.ErrCorrupt):
		return 0, fmt.Errorf("Verify on the damaged store: got %v, want ErrCorrupt", verr)
	case !damaged && verr != nil:
		return 0, fmt.Errorf("Verify on the clean store: %w", verr)
	}
	out, err := os.OpenFile(fx.outPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	cw := &checkWriter{f: out, want: fx.want}
	s = rec.begin(spExtractStream, root, op)
	err = fx.enc.ExtractStream(st.FileID(), st.Layout(), st, cw)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if cw.mismatch.Load() || cw.written.Load() != fx.size {
		return 0, fmt.Errorf("extracted bytes differ from the input (%d of %d bytes written)", cw.written.Load(), fx.size)
	}
	return elapsed, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
