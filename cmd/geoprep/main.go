// Command geoprep runs GeoProof's POR setup phase (paper §V-A) over a
// local file, producing the encoded payload to upload to the cloud and a
// private metadata sidecar for later audits.
//
// Usage:
//
//	geoprep -in data.db -out data.geo -meta data.meta.json [-id fileID]
//	geoprep -in data.db -store data.store -meta data.meta.json
//
// With -store the encode streams straight into a persistent sharded
// store directory (write-combining placer, crash-safe manifest commit)
// that geoproofd -store serves without re-running setup.
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
	out := flag.String("out", "", "encoded output (default <in>.geo)")
	metaPath := flag.String("meta", "", "metadata sidecar (default <in>.meta.json)")
	fileID := flag.String("id", "", "file identifier (default input basename)")
	workers := flag.Int("j", 0, "setup pipeline concurrency (0 = all CPUs, 1 = sequential)")
	stream := flag.Bool("stream", false, "stream file-to-file with bounded memory (never loads the whole file)")
	storeDir := flag.String("store", "", "encode into a persistent sharded store directory instead of a flat .geo file (implies streaming)")
	storeSync := flag.Bool("store-sync", false, "fsync shard files at store commit (power-loss durable)")
	flag.Parse()

	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *out == "" {
		*out = *in + ".geo"
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

	var layout blockfile.Layout
	if *storeDir != "" {
		// Store mode: stream the encode through the write-combining
		// placer into a sharded directory and commit its manifest, so a
		// prover daemon can serve (and re-serve, across restarts) the
		// file without ever re-running setup.
		inF, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open input: %w", err)
		}
		defer inF.Close()
		st, err := inF.Stat()
		if err != nil {
			return fmt.Errorf("stat input: %w", err)
		}
		layout, err = blockfile.NewLayout(enc.Params(), st.Size())
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
	} else if *stream {
		// Streaming mode: chunk-pipelined encode from the input file
		// straight into the output file; resident memory stays bounded by
		// the worker pool's chunk buffers no matter the file size.
		inF, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open input: %w", err)
		}
		defer inF.Close()
		st, err := inF.Stat()
		if err != nil {
			return fmt.Errorf("stat input: %w", err)
		}
		outF, err := os.OpenFile(*out, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("create encoded file: %w", err)
		}
		defer outF.Close()
		layout, err = enc.EncodeStream(*fileID, inF, st.Size(), outF)
		if err != nil {
			return fmt.Errorf("encode stream: %w", err)
		}
		if err := outF.Close(); err != nil {
			return fmt.Errorf("close encoded file: %w", err)
		}
	} else {
		data, err := os.ReadFile(*in)
		if err != nil {
			return fmt.Errorf("read input: %w", err)
		}
		ef, err := enc.Encode(*fileID, data)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		if err := os.WriteFile(*out, ef.Data, 0o644); err != nil {
			return fmt.Errorf("write encoded file: %w", err)
		}
		layout = ef.Layout
	}

	m := meta.Meta{
		Encoding:     blockfile.EncodingVersion,
		FileID:       *fileID,
		OrigBytes:    layout.OrigBytes,
		Params:       blockfile.DefaultParams(),
		MasterKeyHex: hex.EncodeToString(master),
	}
	if err := meta.Save(*metaPath, m); err != nil {
		return err
	}
	fmt.Printf("prepared %q: %d bytes -> %d encoded bytes (%.2f%% overhead), %d segments\n",
		*fileID, layout.OrigBytes, layout.EncodedBytes, layout.TotalOverhead()*100, layout.Segments)
	dest := *out
	if *storeDir != "" {
		dest = *storeDir
	}
	fmt.Printf("upload %s to the provider; keep %s private\n", dest, *metaPath)
	return nil
}
