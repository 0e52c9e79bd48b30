// Package reedsolomon implements systematic Reed-Solomon codes over
// GF(2^8), including a full decoder (Berlekamp-Massey, Chien search and
// Forney's algorithm) that corrects both errors and erasures.
//
// GeoProof's POR setup phase (paper §V-A, step 2) applies the adapted
// (255, 223, 32) Reed-Solomon code to each 255-block chunk of the file. The
// paper states the code over GF(2^128); we realise the identical chunk
// geometry over GF(2^8) by interleaving (see BlockCode): each of the 16
// byte positions of a 128-bit block forms an independent (255,223)
// codeword, so any pattern of up to 16 corrupted *blocks* per chunk remains
// correctable (up to 32 as erasures), exactly matching the per-block
// correction power the paper relies on.
//
// The hot paths run on the gf256 slab engine. A chunk is coded where it
// lies: EncodeChunkInto copies the data blocks once and runs the generator
// LFSR down two adjacent byte columns per pass (gf256's column-pair
// kernel), scattering only the 32 parity bytes of each column;
// DecodeChunkInto copies the data blocks once, runs the same kernel, adds
// each column's received parity and tests the remainder for zero, so a
// clean chunk never gathers a stripe and never touches Berlekamp-Massey.
// Only a stripe that fails the test is repaired. With an erasure list,
// the chunk's 16 stripes share it, so the erased symbols' values are one
// fixed linear function of a stripe's 32-byte remainder: on the chunk's
// first dirty stripe the list is solved once — x^(n-1-p) mod g for each
// listed position p, e pivot rows of those columns, one e×e inverse — and
// every dirty stripe then takes a matrix-vector product, accepted only if
// the values reproduce the whole remainder, and is written back. The
// solve declines an empty or repeated list, and a stripe whose remainder
// the values do not reproduce carries damage off the list; both go to
// the full decoder. That stripe is gathered into a codeword, its syndromes
// evaluated from the remainder rather than the full codeword, corrected —
// without the Chien search when Berlekamp-Massey finds no error outside
// the erasure list, whose positions are then the locator's roots by
// construction — re-checked against the generator and written back. Both
// paths keep their state in fixed-size stack arrays, so for the paper's
// code no decode allocates. The single-codeword API (Encode/Verify/
// Decode), an odd trailing column and generators that are not four words
// wide use the one-column Reduce. Byte-at-a-time reference
// implementations are retained unexported in reference.go as
// differential-fuzzing oracles.
package reedsolomon
