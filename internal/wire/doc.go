// Package wire defines the binary framing GeoProof peers speak over TCP.
// Payload encodings are hand-rolled with encoding/binary — no reflection,
// no allocation surprises — and malformed input surfaces as typed errors
// rather than panics. There is one framing, spoken on both legs of the
// deployment: verifier ↔ prover (segment requests and responses) and TPA
// ↔ verifier daemon (audit requests and signed transcripts).
//
// # Frames
//
// A fixed 9-byte header followed by the payload; the stream identifier
// lets many exchanges be in flight on one connection at once:
//
//	offset  size  field
//	0       4     payload length (big-endian uint32, ≤ MaxFrame)
//	4       1     frame type
//	5       4     stream id (big-endian uint32)
//	9       n     payload
//
// Stream ids are allocated by the client (increasing, never 0, never one
// still in use); the server echoes the request's stream id on the one
// frame it sends in reply and never invents ids of its own. Stream 0
// carries the handshake and nothing else.
//
// # Version check
//
// A connection opens with a Hello on stream 0 carrying the magic and the
// client's maximum supported version (6 bytes). The server answers, also
// on stream 0, with exactly one of:
//
//   - a HelloAck naming MuxVersion (2 bytes): requests may follow, or
//   - an Error, after which it closes the connection. That is the answer
//     to anything that is not a well-formed Hello offering at least
//     MuxVersion.
//
// The client in turn refuses any reply other than a HelloAck naming
// MuxVersion. There is no fallback in either direction and nothing else
// is negotiated: MuxVersion (3) changes whenever the framing or the
// handshake does, so a peer built before the change is refused, never
// misread.
//
// # Stream lifecycle
//
//   - A stream is opened by a request frame carrying its id:
//     TypeSegmentRequest to a prover, TypeAuditRequest to a verifier
//     daemon.
//   - Every stream receives exactly one reply frame: TypeSegmentResponse,
//     TypeSignedTranscript, or TypeError for a per-request
//     failure that leaves the connection itself healthy (a request type
//     the server does not serve among them). On the prover leg that is
//     one challenge, one response, one timed round trip — the verifier
//     issues an audit's k rounds one after the other, because the
//     per-round time is the paper's distance bound. On the daemon leg a
//     stream is a whole audit, and a TPA's concurrent audits overlap.
//   - Cancellation is client-local: a caller that stops waiting on a
//     stream simply discards the late reply for that id. No frame is
//     sent; sibling streams on the connection are unaffected. A verifier
//     daemon stops the audits of a TPA whose connection ends.
//
// A frame for a stream id the client never issued is a protocol
// violation and kills the connection, as does any unparseable frame
// header; per-stream payload errors are confined to their stream.
//
// # Frames on the socket, and who owns a payload
//
// A frame is never split across writes, but a server's write may carry
// several frames. Each end appends header and payload to a pending
// buffer its connection owns, under the lock that serialises its writers
// (AppendMuxHeader / AppendMuxFrame; a segment request is appended
// straight into the frame by SegmentRequest.Append), and one writer at a
// time hands the socket everything pending in one write, so frames never
// interleave and never straddle two system calls. On a server, replies
// queued while a write is running leave together in the next one, and a
// one-P prover's first reply also yields once to sibling replies that
// are ready, so replies to requests that arrived together usually share
// a write. The verifier sends each challenge in its own write. Each end
// reads through a few KiB of buffer, so a frame that arrived whole costs
// one read of the socket — not one for its header and one for its
// payload — and a reply split across reads, or several replies in one,
// parse the same.
//
//   - Server side (prover, verifier daemon), ReadMuxFrame: the request
//     payload is a pooled buffer (GetBuffer). The read loop decodes it —
//     SplitSegmentRequest aliases it, so the prover compares the file ID
//     where it lies and makes a string of it only when it differs from
//     the last one — and hands it back with PutBuffer before the stream
//     is dispatched. Nobody may retain it.
//   - Client side (verifier, TPA), ReadMuxFrameOwned: the reply payload
//     is a fresh slice of exactly the frame's size and belongs to whoever
//     receives it. The demux passes it to the waiting stream as is, and
//     the segment a transcript keeps is that slice; it is never pooled,
//     because it outlives the exchange.
//   - Writers keep what they pass in: a payload is copied into the
//     connection's pending buffer before the write call returns and not
//     referenced after it.
//
// Get/PutBuffer recycle array pointers, so neither call allocates; a
// steady-state round allocates the segment slice on each side and
// nothing for framing.
package wire
