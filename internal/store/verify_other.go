//go:build !unix

package store

import (
	"fmt"
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
