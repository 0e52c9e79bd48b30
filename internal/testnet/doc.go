// Package testnet is a deterministic adversarial scenario orchestrator:
// it spins up simulated GeoProof fleets — hundreds of provers, thousands
// of tenants — from a declarative Spec and replays the paper's attack
// repertoire against the full production control plane (TPA policy,
// audit scheduler, fleet health state machine).
//
// A Spec declares prover groups with first-class adversarial behaviors:
//
//   - relay fronts that claim one city while serving data from another
//     (caught by the Δt_max timing bound, §V-C),
//   - colluding groups sharing one backing store (members near the store
//     pass, fronts relay and bust timing),
//   - provers drifting out of their claimed region with the verifier
//     device in tow (audits pass; only landmark multilateration —
//     geoloc.DetectDrift — flags the moved site),
//   - storage corruption (MAC rejects), packet loss (a lost round fails
//     alone with an error frame) and scripted churn
//     (kill takes the member's node down: its device's dials are
//     refused, live streams reset and the device's pool drops its warm
//     connection; restore/leave/join).
//
// Each spec also declares the expected outcome: a per-group verdict
// class over the (tenant, prover) matrix, health-machine paths and final
// states, and drift flags. Run executes the scenario and returns the
// diff between declared and actual — an empty diff is a passing
// scenario.
//
// The simulated network's link model is the one source of network delay
// in a scenario: timed audit rounds and the drift phase's landmark pings
// both cross its links.
//
// # Determinism contract
//
// A scenario is a pure function of its Spec (including Seed). Audits run
// on the shipped topology and transport, as geoverify and geoverifierd
// run them over TCP: one TPA node's ProverPool reaches each member's
// verifier device (a VerifierServer on the member's device node) with a
// core.DeviceRunner, and the device times the rounds over its own pool
// to the member's ProverServer, so every round is a mux exchange over a
// LAN simnet stream. Each device signs with its own key, and a tenant
// audits each replica as "<tenant>@<member>" through a TPA that trusts
// that device's key alone, so a transcript from any other device is
// rejected. The TPA's leg is a zero-delay link: it draws no
// jitter and moves no clock. The fleet sees a prover only through these
// audits; there is no other exchange. Everything runs on one virtual
// clock (vclock.Virtual) starting at a fixed epoch: a stream read moves
// the clock to the bytes' arrival, a look-up sleeps on it. Every random
// stream — link jitter (drift pings included), packet loss, fleet audit
// jitter, TPA challenge nonces (one stream per tenant, which all its
// device TPAs draw from) — is derived from Seed. The transport
// runs on goroutines (demux loops, device and prover workers), but the
// scheduler runs Workers=1, Timeout=0 and the controller
// Synchronous=true, so only one exchange is ever in flight:
// each clock move and each jitter draw follows from the one before, and
// no goroutine interleaving can reorder observations. Ed25519 signatures
// are deterministic, but each device's key comes from crypto/rand, so
// signature bytes still never enter the trace (only SignatureOK
// verdicts, which are deterministic). Consequently two Runs
// of the same Spec produce byte-identical traces; TraceHash and
// AssertReplay enforce this, and determinism_test.go lint-checks the
// deterministic packages — the transport included — for stray
// wall-clock or global-rand calls that would silently break the
// contract.
//
// The cmd/geonet CLI lists, runs and replays the built-in Library of
// scenarios; CI replays the library under -race within a wall-time
// budget.
package testnet
