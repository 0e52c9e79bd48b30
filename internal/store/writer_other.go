//go:build !unix

package store

// Off unix the Writer has no placer: it implements neither por.BlockPlacer
// nor the flush seam, so the encode writes every block through WriteAt,
// runs its tag pass over ReadAt and WriteAt, and Commit checksums every
// shard from its file.

func (w *Writer) mapShards() error   { return nil }
func (w *Writer) unmapShards() error { return nil }

func (w *Writer) seal() error {
	for s := range w.dirty {
		w.dirty[s] = true
	}
	return nil
}
