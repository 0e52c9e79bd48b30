// Package wire defines the binary framing GeoProof peers speak over TCP.
// Payload encodings are hand-rolled with encoding/binary — no reflection,
// no allocation surprises — and malformed input surfaces as typed errors
// rather than panics. Two framings share one frame-type namespace, one
// per leg of the deployment:
//
// # v1: request/response frames (TPA ↔ verifier daemon, and every Hello)
//
// A fixed 5-byte header followed by the payload:
//
//	offset  size  field
//	0       4     payload length (big-endian uint32, ≤ MaxFrame)
//	4       1     frame type
//	5       n     payload
//
// A v1 connection is strictly half-duplex per exchange: the client writes
// one request frame and reads one response frame. Abandoning an exchange
// mid-flight desynchronises the connection (the response may still be in
// transit), which is why core.RemoteVerifier latches
// core.ErrConnDesynced.
//
// # v2: multiplexed stream frames (verifier ↔ prover)
//
// The v2 framing widens the header with a stream identifier so many
// exchanges can be in flight on one connection at once:
//
//	offset  size  field
//	0       4     payload length (big-endian uint32, ≤ MaxFrame)
//	4       1     frame type
//	5       4     stream id (big-endian uint32)
//	9       n     payload
//
// Stream ids are allocated by the client (increasing, never 0, never one
// still in use); the server echoes the request's stream id on the one
// frame it sends in reply and never invents ids of its own.
//
// # Version check
//
// A prover connection opens with a v1-framed Hello carrying the magic and
// the client's maximum supported version. The server answers with exactly
// one of:
//
//   - a v1-framed HelloAck naming MuxVersion: the connection speaks v2
//     mux frames from the next byte on, or
//   - a v1-framed Error, after which it closes the connection. That is
//     the answer to anything that is not a well-formed Hello offering at
//     least MuxVersion.
//
// The client in turn refuses any reply other than a HelloAck naming
// MuxVersion. There is no fallback in either direction: a peer that does
// not speak mux v2 is not served.
//
// # Stream lifecycle
//
//   - A stream is opened by a request frame carrying its id
//     (TypeSegmentRequest or TypePing).
//   - Every stream receives exactly one reply frame: TypeSegmentResponse,
//     TypePong, or TypeError for a per-request failure that leaves the
//     connection itself healthy. One challenge, one response, one timed
//     round trip — the verifier issues an audit's k rounds one after the
//     other, because the per-round time is the paper's distance bound.
//   - Cancellation is client-local: a caller that stops waiting on a
//     stream simply discards the late reply for that id. No frame is
//     sent; sibling streams on the connection are unaffected.
//
// A frame for a stream id the client never issued is a protocol
// violation and kills the connection, as does any unparseable frame
// header; per-stream payload errors are confined to their stream.
//
// # Frames on the socket, and who owns a payload
//
// A v2 frame leaves in one write and arrives in one read. Each end builds
// header and payload in a scratch buffer its connection owns, under the
// lock that already serialises its writers, and hands the socket the
// whole frame at once (AppendMuxHeader / AppendMuxFrame; a segment
// request is appended straight into the frame by SegmentRequest.Append),
// so frames never interleave and never straddle two system calls. Each
// end reads through a few KiB of buffer, so a frame that arrived whole
// costs one read of the socket — not one for its header and one for its
// payload — and a reply split across reads, or several replies in one,
// parse the same.
//
//   - Prover side, ReadMuxFrame: the request payload is a pooled buffer
//     (GetBuffer). The read loop decodes it — SplitSegmentRequest aliases
//     it, so the file ID is compared where it lies and becomes a string
//     only when it differs from the last one — and hands it back with
//     PutBuffer before the stream is dispatched. Nobody may retain it.
//   - Verifier side, ReadMuxFrameOwned: the reply payload is a fresh
//     slice of exactly the frame's size and belongs to whoever receives
//     it. The demux passes it to the waiting round as is, and the segment
//     the transcript keeps is that slice; it is never pooled, because it
//     outlives the exchange.
//   - Writers keep what they pass in: a payload is copied into the
//     connection's scratch before the write and not referenced after it.
//
// Get/PutBuffer recycle array pointers, so neither call allocates; a
// steady-state round allocates the segment slice on each side and
// nothing for framing.
package wire
