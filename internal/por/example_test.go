package por_test

import (
	"bytes"
	"fmt"

	"repro/internal/por"
)

// ExampleEncoder walks the owner-side life of a file: prepare it for the
// cloud (ECC → encrypt → permute → MAC-tagged segments), spot-check a
// stored segment the way the TPA does, and recover the original bytes
// from the encoded form.
func ExampleEncoder() {
	master := bytes.Repeat([]byte{0x42}, 32) // the owner's secret
	owner := por.NewEncoder(master).WithConcurrency(1)

	file := bytes.Repeat([]byte("customer-record-"), 256) // 4 KiB
	encoded, err := owner.Encode("tenant-1/records.db", file)
	if err != nil {
		fmt.Println("encode:", err)
		return
	}
	fmt.Printf("encoded %d bytes into %d segments of %d bytes\n",
		len(file), encoded.Layout.Segments, encoded.Layout.SegmentSize())

	// A prover returns segment‖tag; anyone holding the master secret can
	// check the embedded MAC.
	off, err := encoded.Layout.SegmentOffset(3)
	if err != nil {
		fmt.Println("offset:", err)
		return
	}
	seg := append([]byte(nil), encoded.Data[off:off+int64(encoded.Layout.SegmentSize())]...)
	verifies := func() bool {
		verdicts, err := owner.VerifySegments(encoded.FileID, encoded.Layout, []int64{3}, [][]byte{seg})
		return err == nil && verdicts[0] == nil
	}
	fmt.Println("segment 3 verifies:", verifies())

	// Tamper with one byte and the tag catches it.
	seg[0] ^= 0xFF
	fmt.Println("tampered segment verifies:", verifies())

	// The original file comes back from the encoded form alone.
	back, err := owner.Extract(encoded.FileID, encoded.Layout, encoded.Data)
	if err != nil {
		fmt.Println("extract:", err)
		return
	}
	fmt.Println("extract round trip:", bytes.Equal(back, file))

	// Output:
	// encoded 4096 bytes into 102 segments of 83 bytes
	// segment 3 verifies: true
	// tampered segment verifies: false
	// extract round trip: true
}
