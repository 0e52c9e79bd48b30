package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/blockfile"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/merkle"
	"repro/internal/por"
	"repro/internal/prp"
	"repro/internal/reedsolomon"
	"repro/internal/store"
	"repro/internal/wire"
)

// perCallNs times fn in batches of at least a millisecond (so the clock
// read is noise even for a 100 ns kernel) for at least minTime and five
// batches, and returns the median per-call time in nanoseconds.
func perCallNs(minTime time.Duration, fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 4
	}
	var samples []float64
	deadline := time.Now().Add(minTime)
	for len(samples) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(start))/float64(n))
	}
	return median(samples)
}

func mbps(bytes int, ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }

// kernels times each layer's public entry points in isolation, on inputs
// shaped like the workloads', for minTime apiece. They run in every
// traced run whatever the workload, so a moved end-to-end number can be
// set against the layer numbers taken in the same process minutes apart.
func kernels(seed int64, dir string, minTime time.Duration, memBytes int) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var kerr error
	check := func(err error) {
		if err != nil && kerr == nil {
			kerr = err
		}
	}

	buf := fill(1 << 20)

	// crypt: sign and verify a transcript-sized message, CTR, one tag.
	params := blockfile.DefaultParams()
	tr := core.Transcript{FileID: "bench-file-0", Nonce: fill(16), Position: geo.Brisbane}
	for i := 0; i < auditK; i++ {
		tr.Rounds = append(tr.Rounds, core.AuditRound{Index: uint64(i), Segment: fill(params.SegmentSize()), RTT: time.Millisecond})
	}
	msg := tr.Marshal()
	signer, err := crypt.NewSigner()
	if err != nil {
		return nil, err
	}
	sig, err := signer.Sign(msg)
	if err != nil {
		return nil, err
	}
	out["crypt.sign_us"] = perCallNs(minTime, func() { _, err := signer.Sign(msg); check(err) }) / 1e3
	out["crypt.verify_us"] = perCallNs(minTime, func() { check(crypt.Verify(signer.Public(), msg, sig)) }) / 1e3
	keys := crypt.DeriveKeys([]byte("bench-master"), "bench-file-0")
	out["crypt.ctr_MBps"] = mbps(len(buf), perCallNs(minTime, func() { check(crypt.EncryptCTRAt(keys.Enc, "bench-file-0", buf, 0)) }))
	tagger, err := crypt.NewTagger(keys.MAC, params.TagBits)
	if err != nil {
		return nil, err
	}
	seg := fill(params.SegmentBlocks * params.BlockSize)
	var segIdx uint64
	out["crypt.tag_ns_per_segment"] = perCallNs(minTime, func() { tagger.Tag(seg, segIdx, "bench-file-0"); segIdx++ })

	// reedsolomon: one (255,223)×16 B chunk — encode, clean decode, and
	// blind decode of 8 corrupted blocks.
	bc, err := reedsolomon.NewBlockCode(reedsolomon.MustNew(params.ChunkTotal, params.ChunkData), params.BlockSize)
	if err != nil {
		return nil, err
	}
	chunkIn := fill(params.ChunkData * params.BlockSize)
	clean, err := bc.EncodeChunk(chunkIn)
	if err != nil {
		return nil, err
	}
	encoded := make([]byte, len(clean))
	out["reedsolomon.encode_MBps"] = mbps(len(chunkIn), perCallNs(minTime, func() { check(bc.EncodeChunkInto(encoded, chunkIn)) }))
	decoded := make([]byte, len(chunkIn))
	out["reedsolomon.decode_clean_MBps"] = mbps(len(clean), perCallNs(minTime, func() { check(bc.DecodeChunkInto(decoded, clean, nil)) }))
	corrupted := append([]byte(nil), clean...)
	for _, blk := range rng.Perm(params.ChunkTotal)[:8] {
		rng.Read(corrupted[blk*params.BlockSize : (blk+1)*params.BlockSize])
	}
	scratch := make([]byte, len(corrupted))
	out["reedsolomon.decode_errors_MBps"] = mbps(len(corrupted), perCallNs(minTime, func() {
		copy(scratch, corrupted)
		check(bc.DecodeChunkInto(decoded, scratch, nil))
	}))
	if !bytes.Equal(decoded, chunkIn) {
		return nil, fmt.Errorf("reedsolomon kernel: decode of 8 corrupted blocks did not recover the chunk")
	}

	// por through a MemTarget: the pipeline's cost without the store.
	enc := por.NewEncoder([]byte("bench-master"))
	data := fill(memBytes)
	layout, err := blockfile.NewLayout(params, int64(len(data)))
	if err != nil {
		return nil, err
	}
	target := por.NewMemTarget(layout.EncodedBytes)
	out["por.encode_mem_MBps"] = mbps(len(data), perCallNs(minTime, func() {
		_, err := enc.EncodeStream("bench-file-0", bytes.NewReader(data), int64(len(data)), target)
		check(err)
	}))
	plain := por.NewMemTarget(int64(len(data)))
	out["por.extract_mem_MBps"] = mbps(len(data), perCallNs(minTime, func() {
		check(enc.ExtractStream("bench-file-0", layout, target, plain))
	}))
	if kerr == nil && !bytes.Equal(plain.B, data) {
		return nil, fmt.Errorf("por kernel: MemTarget round trip differs from the input")
	}

	// por.VerifySegments on k segments, as TPA.VerifyAudit calls it.
	indices, err := core.DeriveIndices(tr.Nonce, layout.Segments, auditK)
	if err != nil {
		return nil, err
	}
	idx := make([]int64, auditK)
	segs := make([][]byte, auditK)
	for i, c := range indices {
		off, err := layout.SegmentOffset(int64(c))
		if err != nil {
			return nil, err
		}
		idx[i], segs[i] = int64(c), target.B[off:off+int64(layout.SegmentSize())]
	}
	seq := enc.WithConcurrency(1)
	out["por.verify_segments_us"] = perCallNs(minTime, func() {
		verdicts, err := seq.VerifySegments("bench-file-0", layout, idx, segs)
		check(err)
		for _, v := range verdicts {
			check(v)
		}
	}) / 1e3

	// prp: the bulk form the pipeline uses, over a 32 MiB file's domain.
	big, err := blockfile.NewLayout(params, 32<<20)
	if err != nil {
		return nil, err
	}
	perm, err := prp.NewFeistel(keys.PRP, uint64(big.TotalBlocks), 8)
	if err != nil {
		return nil, err
	}
	dst := make([]uint64, 1024)
	var first uint64
	out["prp.index_batch_ns"] = perCallNs(minTime, func() {
		perm.IndexBatch(first, dst)
		first = (first + 1024) % (uint64(big.TotalBlocks) - 1024)
	}) / 1024

	// wire: one segment-sized mux frame appended and read back.
	payload := fill(params.SegmentSize())
	var frame []byte
	var rd bytes.Reader
	out["wire.frame_roundtrip_ns"] = perCallNs(minTime, func() {
		var err error
		frame, err = wire.AppendMuxFrame(frame[:0], wire.TypeSegmentResponse, 7, payload)
		check(err)
		rd.Reset(frame)
		_, _, p, err := wire.ReadMuxFrame(&rd)
		check(err)
		wire.PutBuffer(p)
	})

	// merkle: a 16-leaf batch — one inclusion proof made and checked.
	leaves := make([][]byte, fleetBatchMax)
	for i := range leaves {
		leaves[i] = fill(32)
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return nil, err
	}
	var leaf int
	out["merkle.prove_verify_us"] = perCallNs(minTime, func() {
		p, err := tree.Prove(leaf)
		check(err)
		check(merkle.Verify(tree.Root(), leaves[leaf], p))
		leaf = (leaf + 1) % len(leaves)
	}) / 1e3

	// store and cloud: one segment read from a committed store, bare and
	// through the site's disk model (whose look-up time is not slept).
	sdir := filepath.Join(dir, "kernel-store")
	if _, err := encodeStore(enc, "bench-file-0", bytes.NewReader(data), int64(len(data)), sdir); err != nil {
		return nil, err
	}
	st, err := store.Open(sdir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var segNo int64
	next := func() int64 { segNo = (segNo + 7919) % layout.Segments; return segNo }
	out["store.read_segment_us"] = perCallNs(minTime, func() { _, err := st.ReadSegment(next()); check(err) }) / 1e3
	site := cloud.NewSite(cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: disk.IBM36Z15}, seed)
	site.StoreOn("bench-file-0", layout, st)
	provider := &cloud.HonestProvider{Site: site}
	out["cloud.fetch_segment_us"] = perCallNs(minTime, func() { _, _, err := provider.FetchSegment("bench-file-0", next()); check(err) }) / 1e3

	return out, kerr
}
