//go:build !unix

package store

import "fmt"

// Off unix the Writer maps nothing and lends no images, so the encode
// writes every block through WriteAt, runs its tag pass over ReadAt and
// WriteAt, and Commit checksums every shard from its file.

func (w *Writer) mapShards() error   { return nil }
func (w *Writer) unmapShards() error { return nil }

// seal takes every shard's CRC-32C from its file.
func (w *Writer) seal() error {
	buf := make([]byte, compactChunkBytes)
	for s, f := range w.shards {
		crc, err := shardCRC(f, w.man.Shards[s].Bytes, buf)
		if err != nil {
			return fmt.Errorf("store: checksum shard %d: %w", s, err)
		}
		w.man.Shards[s].CRC32C = crc
	}
	return nil
}
