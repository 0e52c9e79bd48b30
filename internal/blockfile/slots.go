package blockfile

// MaxViewBytes bounds a view a SlotGeom addresses: its slots and byte
// offsets are 32-bit, so 4 GiB is the limit and 2 GiB keeps a margin.
const MaxViewBytes = 1 << 31

// GatherStrip is how many 16-byte blocks Gather resolves to an address
// before it loads any of them. The addresses live in a stack array of
// this length; strips of 128 to 2 048 gather at the same speed.
const GatherStrip = 256

// SlotGeom addresses block slot b — block b of the permuted file F‴, at
// StoredBlockOffset(b) — inside segment-aligned views of the encoded file
// (a store's shards, or an in-memory image) with 32-bit arithmetic. Every
// view but the last has the full length, at most MaxViewBytes.
type SlotGeom struct {
	perView uint32 // block slots in a full view
	v       uint32 // blocks per segment
	segSize uint32 // segment bytes, tag included
	bs      uint32 // block bytes
}

// Views cuts img, the whole encoded file in memory, into views for its
// slot map: one view, or views of at most MaxViewBytes for an image that
// large. A nil img has no views.
func (l Layout) Views(img []byte) (SlotGeom, [][]byte) {
	n := l.AlignToSegments(min(l.EncodedBytes, MaxViewBytes))
	var views [][]byte
	for off := int64(0); off < int64(len(img)); off += n {
		views = append(views, img[off:min(off+n, int64(len(img)))])
	}
	return l.SlotGeom(n), views
}

// SlotGeom returns the slot map of views of viewBytes bytes.
func (l Layout) SlotGeom(viewBytes int64) SlotGeom {
	segSize := int64(l.SegmentSize())
	return SlotGeom{
		perView: uint32(viewBytes / segSize * int64(l.SegmentBlocks)),
		v:       uint32(l.SegmentBlocks),
		segSize: uint32(segSize),
		bs:      uint32(l.BlockSize),
	}
}

// locate splits slot b into its view and view-relative slot: one 32-bit
// divide below 2³², a 64-bit one above.
func (g SlotGeom) locate(b uint64) (view, rel uint32) {
	if b < 1<<32 {
		view = uint32(b) / g.perView
		return view, uint32(b) - view*g.perView
	}
	v64 := b / uint64(g.perView)
	return uint32(v64), uint32(b - v64*uint64(g.perView))
}

// offset is the byte offset of view-relative slot rel in its view:
// segment rel/v, block rel%v of it.
func (g SlotGeom) offset(rel uint32) uint32 {
	seg := rel / g.v
	return seg*g.segSize + (rel-seg*g.v)*g.bs
}

// Place stores block j of buf at slots[j] in views, in order; buf holds
// exactly len(slots) blocks and every slot lies inside views. A 16-byte
// block is one load/store pair, where copy calls runtime.memmove per
// block. A seen bitmap, when not nil, holds one bit per slot: Place sets
// each slot's bit as it stores the block and stops at a slot whose bit is
// already set, returning its index in slots. It returns -1 otherwise.
func (g SlotGeom) Place(views [][]byte, buf []byte, slots []uint64, seen []uint64) int {
	for j, b := range slots {
		if seen != nil {
			if seen[b/64]&(1<<(b%64)) != 0 {
				return j
			}
			seen[b/64] |= 1 << (b % 64)
		}
		view, rel := g.locate(b)
		if dst := views[view][g.offset(rel):]; g.bs == 16 {
			*(*[16]byte)(dst) = *(*[16]byte)(buf[j*16:])
		} else {
			copy(dst[:g.bs], buf[j*int(g.bs):])
		}
	}
	return -1
}

// Gather is Place's inverse: it fills buf with the blocks at slots, in
// order. The paper's 16-byte blocks go in two passes over strips of
// GatherStrip slots: the first resolves each slot to a bounds-checked
// *[16]byte into its view, the second moves the blocks, each a load/store
// pair waiting on nothing but its pointer, so many block misses are in
// flight at once: out of cache 27–31 ns a block against 39–53 fused (-cpu
// 1, an 8 MiB store's shard mappings). The pointers live only in this
// call's stack frame.
func (g SlotGeom) Gather(buf []byte, views [][]byte, slots []uint64) {
	if g.bs == 16 {
		var at [GatherStrip]*[16]byte
		for lo := 0; lo < len(slots); lo += GatherStrip {
			strip := slots[lo:min(lo+GatherStrip, len(slots))]
			for j, b := range strip {
				view, rel := g.locate(b)
				at[j] = (*[16]byte)(views[view][g.offset(rel):])
			}
			out := buf[lo*16 : (lo+len(strip))*16]
			for j := range strip {
				*(*[16]byte)(out[j*16:]) = *at[j]
			}
		}
		return
	}
	for j, b := range slots {
		view, rel := g.locate(b)
		copy(buf[j*int(g.bs):], views[view][g.offset(rel):][:g.bs])
	}
}
