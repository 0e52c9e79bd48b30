// Package core implements the GeoProof protocol itself — the paper's
// primary contribution (§V): a proof-of-storage audit whose challenge-
// response rounds are individually timed by a trusted, GPS-enabled
// verifier device inside the provider's LAN, so that a third-party
// auditor can conclude the data physically resides near the contracted
// location.
//
// Roles:
//
//   - Owner (por.Encoder): prepares the file per §V-A and holds the master
//     secret.
//   - Verifier device V (Verifier): tamper-proof, GPS-enabled, sits in the
//     provider's LAN; runs the timed rounds and signs the transcript.
//   - Prover P: the cloud provider serving segments (cloud.Provider behind
//     a ProverConn transport).
//   - TPA A (TPA): drives audits through V, verifies signature, GPS
//     position, segment MACs and the per-round time bound Δt_max. The
//     request-to-verifier leg is not authenticated, so it also checks that
//     the transcript names the file and nonce it asked for, and checks the
//     MACs under the requested file's key.
//
// # Transports
//
// The verifier reaches the prover through the ProverConn interface — one
// call, one challenge, one response, one round trip timed on the
// verifier's clock. There is one implementation: MuxProverConn speaks the
// multiplexed framing (internal/wire/doc.go) against a ProverServer
// (cmd/geoproofd): many concurrent audits share one connection, each
// round on its own stream, with per-stream cancellation that never
// poisons sibling streams. The same transport runs over TCP and over the
// simulator: a ProverServer serves any net.Listener — a simnet node's
// among them — and ProverPool.Dial swaps the TCP dial for a simnet
// stream. The transport reads its clock from the connection (clockOf): a
// simnet stream carries the network's virtual clock, so the handshake
// deadlines, Ping and the server's simulated look-up run on virtual time
// there and on the wall clock on TCP. An audit's k rounds are serial: the
// next challenge leaves only after the last response arrived, so max RTT
// ≤ Δt_max is the paper's per-round distance bound, and throughput comes
// from many audits multiplexed across streams, never from pipelining one
// audit's challenges. A peer that does not speak wire.MuxVersion is
// refused at the Hello. Inside a round the transport adds what the wire
// costs and little else: every frame leaves whole in one write
// (frameWriter), both read through a small buffer, the demux hands the
// waiting round the very slice the reply was read into, and ProverServer
// serves streams on resident per-connection workers — a request goes to
// a parked worker, a new one starts only when none is idle, so a
// connection holds as many as its peer has had streams open at once and
// a slow look-up never delays the frame behind it. Replies share writes:
// on both servers a reply queued while another's write is running leaves
// in the next write, up to 64 KiB queued, past which writers wait (a peer
// that stops reading stalls the read loop); on a one-P prover the reply
// that starts a write first yields once while another stream on its
// connection is being served, so sibling replies that are already
// runnable join it. The verifier's challenges take turns, each in its
// own write and none yielding, so Δt_j starts when the challenge reaches
// the socket and only a reply waits, for its own siblings. On the
// two-client loopback benchmark an audit of k = 20 rounds makes about 30
// socket writes and 40 reads (one write per frame, 40, before replies
// shared them).
// ProverServer.Concurrency bounds connections served at once and, per
// connection, streams being served at once (hence its workers); the read
// loop takes the slot before it dispatches and the worker returns it
// once the reply is queued, which may be before it reaches the socket.
// ProverPool keeps one connection warm per address. The third leg — a
// TPA (cmd/geoverify) talking to the verifier device beside each prover
// (cmd/geoverifierd), which makes the deployment fully distributed as
// in the paper's Fig. 4 — rides the same transport: the TPA borrows the
// device's connection from a ProverPool and calls
// MuxProverConn.RunAudit, one stream per audit, so concurrent audits
// share one connection and cancelling one abandons only its stream;
// VerifierServer answers each request on its own goroutine through the
// AuditRunner it was given (a PooledRunner in the daemon) and cancels
// the audits of a TPA whose connection ends.
//
// # The simulated look-up
//
// The paper prices an honest round at one disk look-up (§V-C, 5.406 ms
// for the IBM 36Z15 of Table I) and sizes Δt_max on it. A ProverServer
// with SimulateServiceTime set models that look-up: each segment request
// reads its segment, then sleeps the provider's modelled look-up time on
// the connection's clock before the reply is queued — virtual time on a
// simnet stream, vclock.Real on TCP (geoproofd -simulate). The real
// clock's Sleep wakes on a timerfd at its deadline on Linux, not on the
// runtime's whole-millisecond timer poll, so a round's service time is
// the model's plus a few tens of µs rather than up to a millisecond
// more. geoproof_prover_lookup_late_seconds records how far past its
// look-up each such sleep returned, measured on the same clock: 0 on the
// virtual link, the host's timer noise on TCP.
//
// # Multi-tenant audit scheduling
//
// One verified transcript is VerifyAudit. The Scheduler (sched.go) is
// the layer above it: it continuously drives whole audits — fresh nonce,
// timed rounds via an AuditRunner, verification, verdict — for many tenants
// against many provers, with a bounded in-flight window per prover,
// round-robin tenant fairness, per-attempt timeouts and bounded retries;
// the fleet controller tightens those knobs for one prover with a
// ProverPolicy while it escalates it. Verdicts aggregate in an AuditLedger
// keyed by (tenant, prover, epoch). The scheduler reaches provers through
// the AuditRunner implementations: PooledRunner (local verifier, the warm
// multiplexed conn from a ProverPool, over TCP or a simnet network) and a
// MuxProverConn dialed to a remote verifier daemon.
//
// # Transcript attestation
//
// A SignedTranscript carries one of two attestation forms. The
// classic form is a per-transcript ECDSA signature over the canonical
// transcript bytes. The amortized form (BatchAttestation, produced by a
// Verifier configured WithBatchSigner) replaces it with a signature
// over a Merkle root covering a whole window of concurrent audits plus
// this transcript's inclusion proof — same trust argument, one
// asymmetric signature per window instead of per audit (see
// crypt/doc.go). Verification mirrors that split: the TPA verifies each
// distinct root's signature once (a small LRU of verified roots makes
// the rest of the window cache hits) and then checks one SHA-256
// inclusion path per transcript. Everything downstream of step 1 — position, MACs,
// min-RTT timing, rejection semantics — is identical in both modes, and
// each Report and LedgerEntry records which attestation mode vouched
// for the verdict.
//
// Nothing about the form is negotiated, on any leg: a verifier daemon
// started with -batchsign returns batch-attested transcripts, one
// without returns signed ones, and the TPA tells which it was handed
// from the transcript itself (verifyAttestation).
//
// # Fleet control plane
//
// The FleetController (fleet.go) closes the loop the Scheduler leaves
// open: instead of a caller handing RunEpoch a static task list, the
// controller owns a dynamic prover registry (Register/Deregister at
// runtime, graceful draining of in-flight audits before a prover's
// state is torn down) and reconciles desired state against observed
// health. Between full audits it runs cheap liveness probes (PoolProbe
// borrows a warm pooled conn and pings), and it re-audits every prover
// continuously on a per-prover jittered period. Each prover walks a
// health state machine:
//
//	          1 failed cycle,
//	          or 3 failed probes in a row
//	Healthy ────────────────────────────────────▶ Suspect
//	  ▲                                             │
//	  │ cycle passes                                │ 2 failed cycles
//	  │ (base policy restored)                      │ while suspect
//	  │                                             ▼
//	  │      2 probation passes in a row      Quarantined ──▶ Evicted
//	  │      (AuditPeriod/4 apart)                  │   (quarantine entries
//	Probation ◀─────────────────────────────────────┘    ≥ EvictAfter)
//	  │              quarantine backoff expired
//	  └──▶ back to Quarantined on any probation failure
//
// A suspect prover is audited under an escalated ProverPolicy (window
// 1, half the per-attempt timeout with a 1 ms floor, 2 retries backing
// off from 10 ms) with twice the rounds per audit; a quarantined prover
// receives no audits at all until its quarantine delay — AuditPeriod,
// doubling with each quarantine, capped at 8·AuditPeriod — re-admits it
// to probation, where single rotating-task audits decide between full
// recovery and re-quarantine. These thresholds are constants
// (fleet.go), not FleetConfig knobs.
// Every decision runs on the vclock.Clock seam with per-prover seeded
// AuditJitter draws, so a controller scenario on the
// virtual clock replays bit-identically — the Synchronous mode runs
// due work inline on Tick in deterministic order for exactly that.
// Status() snapshots the whole fleet (health, policies, counters,
// ledger totals) for the JSON status API served by geoverify, and
// RetainEpochs bounds ledger memory by folding old
// epochs into per-pair archive cells (AuditLedger.CompactBefore) as
// the controller ticks.
//
// # Cancellation
//
// A context.Context threads the whole audit path — RunEpoch →
// AuditRunner.RunAudit → Verifier.RunAudit → ProverConn.GetSegment — so
// a timed-out attempt is cancelled, not abandoned: the scheduler cancels
// the attempt's context when it frees the window slot, the mux transport
// abandons just that stream — a round's to a prover, an audit's to a
// verifier daemon — and the attempt's goroutine unwinds instead of
// leaking against a hung prover.
package core
