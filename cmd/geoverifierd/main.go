// Command geoverifierd is the verifier device (the tamper-proof,
// GPS-enabled box of paper Fig. 4) that sits in the provider's LAN
// beside one prover: it accepts audit requests from the TPA (geoverify
// -devices), runs the timed challenge rounds against its prover from
// there, and returns transcripts signed with its own key and stamped
// with its GPS position — each TPA connection multiplexed, so its
// concurrent audits overlap, and an audit whose TPA has gone is
// cancelled. Each transcript carries its own Ed25519 signature, the
// paper's Sign_SK(R); the public key is printed at startup for
// registration with the TPA.
//
// Usage:
//
//	geoverifierd -addr :9342 -prover host:9341 [-lat -27.4698 -lon 153.0251]
//
// The rounds reach the prover over one persistent multiplexed connection,
// kept warm in a pool and shared by every audit in flight. Within an
// audit the k challenge rounds are serial — the next challenge leaves
// only after the last response arrived — so each round's time is the
// paper's per-round distance bound.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geoverifierd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":9342", "listen address for TPA connections")
	prover := flag.String("prover", "127.0.0.1:9341", "prover (geoproofd) address")
	lat := flag.Float64("lat", geo.Brisbane.LatDeg, "device GPS latitude")
	lon := flag.Float64("lon", geo.Brisbane.LonDeg, "device GPS longitude")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	signer, err := crypt.NewSigner()
	if err != nil {
		return err
	}
	receiver := &gps.Receiver{True: geo.Position{LatDeg: *lat, LonDeg: *lon}}
	verifier, err := core.NewVerifier(signer, receiver, nil)
	if err != nil {
		return err
	}

	// The key line stays on stdout: operators pipe it into TPA
	// registration, so it is data output, not a log event.
	fmt.Printf("verifier public key (register with TPA): %s\n", signer.Public())
	// One warm pooled connection: however many audits the TPAs send, the
	// prover is dialed once.
	pool := &core.ProverPool{}
	defer pool.Close()
	srv := &core.VerifierServer{
		Runner: &core.PooledRunner{Verifier: verifier, Addr: *prover, Pool: pool},
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	slog.Info("verifier device serving",
		"addr", lis.Addr().String(), "lat", *lat, "lon", *lon, "prover", *prover)
	return srv.Serve(lis)
}
