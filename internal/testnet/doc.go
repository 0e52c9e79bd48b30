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
//   - storage corruption (MAC rejects), added service delay, packet loss
//     (a lost round fails alone with an error frame) and scripted churn
//     (kill takes the member's node down: dials are refused, live
//     streams reset and the pool drops its warm connection;
//     restore/leave/join).
//
// Each spec also declares the expected outcome: a per-group verdict
// class over the (tenant, prover) matrix, health-machine paths and final
// states, drift flags and distance-bounding acceptance bounds. Run
// executes the scenario and returns the diff between declared and actual
// — an empty diff is a passing scenario.
//
// # Determinism contract
//
// A scenario is a pure function of its Spec (including Seed). Audits and
// probes run on the shipped transport — each member's ProverServer
// listens on its simnet node and one ProverPool dials them all, so every
// round is a mux exchange over a simnet stream — and everything runs on
// one virtual clock (vclock.Virtual) starting at a fixed epoch: a stream
// read moves the clock to the bytes' arrival, a look-up sleeps on it.
// Every random stream — link jitter, packet loss, fleet audit jitter,
// TPA challenge nonces, dbound sessions, drift probes — is derived from
// Seed via seedFor. The transport runs on goroutines (demux loops, prover
// workers), but the scheduler runs Workers=1, Timeout=0 and the
// controller Synchronous=true, so only one exchange is ever in flight:
// each clock move and each jitter draw follows from the one before, and
// no goroutine interleaving can reorder observations. ECDSA signatures
// do use crypto/rand, but signature bytes never enter the trace (only
// SignatureOK verdicts, which are deterministic). Consequently two Runs
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
