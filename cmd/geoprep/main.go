// Command geoprep runs GeoProof's POR setup phase (paper §V-A) over a
// local file: it encodes the file into a sharded store directory to
// upload to the cloud, and writes a private metadata sidecar (the
// owner's master key) for later audits.
//
// Usage:
//
//	geoprep -in data.db [-store data.db.store] [-meta data.db.meta.json] [-id fileID]
//
// The encode streams straight into the store (blocks stored into its
// mapped page cache, crash-safe manifest commit), which geoproofd -store
// serves without re-running setup. The sidecar stays with the owner and
// the TPA; the store never carries the key.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/blockfile"
	"repro/internal/crypt"
	"repro/internal/meta"
	"repro/internal/por"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geoprep:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "input file to prepare")
	metaPath := flag.String("meta", "", "metadata sidecar (default <in>.meta.json)")
	fileID := flag.String("id", "", "file identifier (default input basename)")
	workers := flag.Int("j", 0, "setup pipeline concurrency (0 = all CPUs, 1 = sequential)")
	storeDir := flag.String("store", "", "sharded store directory to encode into (default <in>.store; on unix the shards are mapped while encoding, so RSS ≈ the encoded size, ≈ 1.19× the input)")
	storeSync := flag.Bool("store-sync", false, "fsync shard files at store commit (power-loss durable)")
	flag.Parse()

	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *storeDir == "" {
		*storeDir = *in + ".store"
	}
	if *metaPath == "" {
		*metaPath = *in + ".meta.json"
	}
	if *fileID == "" {
		*fileID = filepath.Base(*in)
	}

	master, err := crypt.NewMasterKey()
	if err != nil {
		return err
	}
	enc := por.NewEncoder(master).WithConcurrency(*workers)

	inF, err := os.Open(*in)
	if err != nil {
		return fmt.Errorf("open input: %w", err)
	}
	defer inF.Close()
	st, err := inF.Stat()
	if err != nil {
		return fmt.Errorf("stat input: %w", err)
	}
	layout, err := blockfile.NewLayout(enc.Params(), st.Size())
	if err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	w, err := store.Create(*storeDir, *fileID, layout, store.Options{Sync: *storeSync})
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := enc.EncodeStream(*fileID, inF, st.Size(), w); err != nil {
		return fmt.Errorf("encode into store: %w", err)
	}
	man, err := w.Commit()
	if err != nil {
		return err
	}
	fmt.Printf("committed store %s: epoch %d, %d shards of ≤%d bytes\n",
		*storeDir, man.Epoch, len(man.Shards), man.ShardBytes)

	m := meta.Meta{
		Encoding:     blockfile.EncodingVersion,
		FileID:       *fileID,
		OrigBytes:    layout.OrigBytes,
		Params:       layout.Params,
		MasterKeyHex: hex.EncodeToString(master),
	}
	if err := meta.Save(*metaPath, m); err != nil {
		return err
	}
	fmt.Printf("prepared %q: %d bytes -> %d encoded bytes (%.2f%% overhead), %d segments\n",
		*fileID, layout.OrigBytes, layout.EncodedBytes, layout.TotalOverhead()*100, layout.Segments)
	fmt.Printf("upload %s to the provider; keep %s private\n", *storeDir, *metaPath)
	return nil
}
