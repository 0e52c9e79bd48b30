//go:build !unix

package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Verify streams every shard and checks it against the committed CRC-32C,
// catching silent on-disk damage before the store is served. Shards are
// not mapped on this platform, so it preads each through one buffer.
func (s *Store) Verify() error {
	buf := make([]byte, compactChunkBytes)
	for i, f := range s.shards {
		s.locks[i].RLock()
		if s.closed {
			s.locks[i].RUnlock()
			return fmt.Errorf("store: verify: %w", os.ErrClosed)
		}
		got, err := shardCRC(f, s.man.Shards[i].Bytes, buf)
		s.locks[i].RUnlock()
		if err != nil {
			return fmt.Errorf("store: verify shard %d: %w", i, err)
		}
		if err := s.checkShardCRC(i, got); err != nil {
			return err
		}
	}
	return nil
}

// shardCRC streams the first n bytes of a shard file through CRC-32C,
// reading through buf.
func shardCRC(f *os.File, n int64, buf []byte) (uint32, error) {
	crc := crc32.New(castagnoli)
	if _, err := io.CopyBuffer(crc, io.NewSectionReader(f, 0, n), buf); err != nil {
		return 0, err
	}
	return crc.Sum32(), nil
}
