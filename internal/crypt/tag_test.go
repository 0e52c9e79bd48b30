package crypt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// taggerPath is a Tagger on one of its slab paths.
type taggerPath struct {
	name string
	tg   *Tagger
}

// taggerPaths returns the paths the slab tests run on: the fused VAES
// kernel where NewTagger chose it, and the portable lanes on every host —
// a second Tagger under the same key with the kernel cleared. A host
// without the kernel says in the test log what it lacks.
func taggerPaths(t testing.TB, key []byte, bits int) []taggerPath {
	t.Helper()
	tg, err := NewTagger(key, bits)
	if err != nil {
		t.Fatal(err)
	}
	portable, err := NewTagger(key, bits)
	if err != nil {
		t.Fatal(err)
	}
	portable.kernel = false
	if !tg.kernel {
		t.Logf("VAES tag kernel not run: host lacks %s", vaesMissing)
		return []taggerPath{{"portable", portable}}
	}
	return []taggerPath{{"vaes", tg}, {"portable", portable}}
}

// TestSlabPathsMatchRFC4493 pins both slab paths to the AES-128 examples
// of RFC 4493 §4 whose messages are a header block and a payload (16, 40
// and 64 bytes): under the RFC's key, with segment p's header made the
// message's first block, segment p's stamped tag must be the RFC's MAC,
// for every lane p of two full groups — sixteen segments a group on the
// kernel, four on the portable path — while the segments around it carry
// other headers.
func TestSlabPathsMatchRFC4493(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	key := unhex("2b7e151628aed2a6abf7158809cf4f3c")
	msg := unhex("6bc1bee22e409f96e93d7e117393172a" + "ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" + "f69f2445df4f9b17ad2b417be66c3710")
	c, err := newCMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []bool{true, false} {
		tg := &Tagger{mac: c, bits: MaxTagBits, kernel: kernel}
		name, lanes := "portable", tagLanes
		if kernel {
			if vaesMissing != "" {
				t.Logf("VAES tag kernel not run: host lacks %s", vaesMissing)
				continue
			}
			tg.setKernelKey((*[16]byte)(key))
			name, lanes = "vaes", kernelLanes
		}
		for _, v := range []struct {
			len  int
			want string
		}{
			{16, "070a16b46b4d4144f79bdd9dd04a287c"},
			{40, "dfa66747de9ae63030ca32611497c827"},
			{64, "51f0bebf7e3b9d92fc49741779363cfe"},
		} {
			n := v.len - 16
			stride := n + MaxTagBits/8
			slab := make([]byte, 2*lanes*stride)
			for p := 0; p < 2*lanes; p++ {
				copy(slab[p*stride:], msg[16:v.len])
			}
			s := new(tagScratch)
			copy(s.fidSum[:], msg[8:16])
			for p := 0; p < 2*lanes; p++ {
				tg.slab(s, slab, n, binary.BigEndian.Uint64(msg)-uint64(p), false, nil)
				if got := hex.EncodeToString(slab[p*stride+n : (p+1)*stride]); got != v.want {
					t.Errorf("%s: len %d, segment %d of %d: CMAC=%s, want %s", name, v.len, p, 2*lanes, got, v.want)
				}
			}
		}
	}
}

// TestTaggerSharedAcrossGoroutines: one Tagger, on the kernel path where
// the host has it, serves TagSlab and VerifySlab from eight goroutines at
// once — different file IDs, so each checks a scratch whose file ID half
// another just replaced, and run lengths on and off the sixteen-segment
// group —
// and every result equals the one a sequential pass computed first.
func TestTaggerSharedAcrossGoroutines(t *testing.T) {
	tg := taggerPaths(t, []byte("shared-key"), 20)[0].tg
	const payload, workers, rounds = 80, 8, 20
	stride := payload + tg.Size()
	type job struct {
		fileID          string
		first           uint64
		plain, tagged   []byte
		damaged         []byte
		wantBad, gotBad []bool
	}
	rng := rand.New(rand.NewSource(26))
	jobs := make([]*job, workers)
	for w := range jobs {
		run := []int{1, 15, 16, 17, 31, 33, 64, 1000}[w]
		j := &job{fileID: fmt.Sprintf("file-%d", w), first: rng.Uint64()}
		j.plain = make([]byte, run*stride)
		rng.Read(j.plain)
		j.tagged = bytes.Clone(j.plain)
		tg.TagSlab(j.tagged, payload, j.first, j.fileID)
		j.damaged = bytes.Clone(j.tagged)
		for i := 0; i < run; i += 3 {
			j.damaged[i*stride+rng.Intn(payload+1)] ^= 0x80
		}
		j.wantBad = make([]bool, run)
		tg.VerifySlab(j.damaged, payload, j.first, j.fileID, j.wantBad)
		j.gotBad = make([]bool, run)
		jobs[w] = j
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			slab := make([]byte, len(j.plain))
			for r := 0; r < rounds; r++ {
				copy(slab, j.plain)
				tg.TagSlab(slab, payload, j.first, j.fileID)
				if !bytes.Equal(slab, j.tagged) {
					errs <- fmt.Errorf("%s, round %d: TagSlab differs from the sequential pass", j.fileID, r)
					return
				}
				clear(j.gotBad)
				tg.VerifySlab(j.damaged, payload, j.first, j.fileID, j.gotBad)
				for i := range j.gotBad {
					if j.gotBad[i] != j.wantBad[i] {
						errs <- fmt.Errorf("%s, round %d: VerifySlab bad[%d]=%v, sequential pass %v", j.fileID, r, i, j.gotBad[i], j.wantBad[i])
						return
					}
				}
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzTagSlab stamps a run of segments on every slab path and checks each
// tag against referenceTag, then damages the payload bytes and first tag
// bytes the fuzzer names and requires VerifySlab, on every path, to flag
// exactly the segments whose stored tag no longer matches the reference
// (for tags of 64 bits and up, exactly the damaged segments).
func FuzzTagSlab(f *testing.F) {
	f.Add(uint8(80), uint8(17), uint64(0), uint8(12), int64(1), []byte{0, 0, 9, 80})
	f.Add(uint8(0), uint8(8), uint64(math.MaxUint64-3), uint8(120), int64(2), []byte{3, 0})
	f.Add(uint8(97), uint8(40), uint64(1<<40), uint8(56), int64(3), []byte{39, 96, 8, 1, 8, 1})
	f.Add(uint8(16), uint8(9), uint64(7), uint8(0), int64(4), []byte{})
	f.Add(uint8(5), uint8(33), uint64(math.MaxUint64-20), uint8(7), int64(5), []byte{32, 2, 15, 5})
	f.Add(uint8(33), uint8(32), uint64(1), uint8(100), int64(6), []byte{16, 33, 31, 0})
	key := []byte("fuzz-key")
	f.Fuzz(func(t *testing.T, payloadB, runB uint8, first uint64, bitsB uint8, seed int64, damage []byte) {
		payload, run, bits := int(payloadB)%98, int(runB)%41, 8+int(bitsB)%(MaxTagBits-7)
		const fileID = "fuzz-file"
		paths := taggerPaths(t, key, bits)
		size := paths[0].tg.Size()
		stride := payload + size
		plain := make([]byte, run*stride)
		rand.New(rand.NewSource(seed)).Read(plain)

		ref := make([][]byte, run)
		for i := range ref {
			ref[i] = referenceTag(t, key, bits, plain[i*stride:i*stride+payload], first+uint64(i), fileID)
		}
		tagged := make([][]byte, len(paths))
		for p, path := range paths {
			tagged[p] = bytes.Clone(plain)
			path.tg.TagSlab(tagged[p], payload, first, fileID)
			for i := 0; i < run; i++ {
				if got := tagged[p][i*stride+payload : (i+1)*stride]; !bytes.Equal(got, ref[i]) {
					t.Fatalf("%s: segment %d (index %#x) tag %x, reference %x", path.name, i, first+uint64(i), got, ref[i])
				}
			}
		}
		if run == 0 {
			return
		}
		damaged := bytes.Clone(tagged[0])
		for d := 0; d+1 < len(damage); d += 2 {
			damaged[int(damage[d])%run*stride+int(damage[d+1])%(payload+1)] ^= 0x80
		}
		want := make([]bool, run)
		for i := range want {
			seg := damaged[i*stride : (i+1)*stride]
			want[i] = !bytes.Equal(seg[payload:], referenceTag(t, key, bits, seg[:payload], first+uint64(i), fileID))
			if touched := !bytes.Equal(seg, tagged[0][i*stride:(i+1)*stride]); bits >= 64 && want[i] != touched {
				t.Fatalf("segment %d: damaged=%v, reference mismatch=%v", i, touched, want[i])
			}
		}
		for _, path := range paths {
			bad := make([]bool, run)
			path.tg.VerifySlab(damaged, payload, first, fileID, bad)
			for i := range bad {
				if bad[i] != want[i] {
					t.Fatalf("%s: VerifySlab bad[%d]=%v, want %v", path.name, i, bad[i], want[i])
				}
			}
		}
	})
}
