package testnet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoWallClockOrGlobalRand is a lint-style guard on the determinism
// contract: packages that participate in deterministic scenarios must
// not call the wall clock or the global math/rand source — time comes
// from an injected vclock.Clock, randomness from seeded *rand.Rand
// streams. A stray time.Now() or rand.Intn() compiles fine and even
// replays fine most of the time, which is exactly why it is banned by
// grep rather than discovered as a flake six months later.
func TestNoWallClockOrGlobalRand(t *testing.T) {
	// Packages under the contract.
	packages := []string{
		"../simnet", "../vclock", "../dbound", "../geoloc", "../geo",
		"../gps", "../cloud", "../core", "../testnet", "../telemetry",
	}
	// Files excluded wholesale: telemetry/logging.go only builds slog
	// handlers for the daemons; the metrics and trace cores stay fully
	// under the contract. The transport (mux.go, tcp.go, pool.go,
	// verifierd.go) is under it too: scenarios run it, and it reads its
	// clock from the connection.
	excludedFiles := map[string]bool{
		"logging.go": true,
	}
	// Specific (file, token) allowances, each a deliberate seam:
	//   vclock.go   — Real is the wall-clock implementation itself;
	//   fleet.go    — the production Run loop's timer (Tick mode bypasses it);
	//   tpa.go      — crypto/rand default nonce source, overridden via
	//                 WithNonceReader in deterministic scenarios;
	//   backoff.go  — global-rand default jitter, overridden by the
	//                 scheduler's seeded RetryRand.
	allowed := map[string][]string{
		"vclock.go":  {"time.Now(", "time.Sleep(", "time.NewTimer("},
		"fleet.go":   {"time.NewTimer("},
		"tpa.go":     {"rand.Reader"},
		"backoff.go": {"rand.Float64("},
	}
	forbidden := []string{
		"time.Now(", "time.Sleep(", "time.After(", "time.NewTimer(",
		"time.NewTicker(", "time.Tick(",
		"rand.Reader", "rand.Int(", "rand.Intn(", "rand.Int31", "rand.Int63",
		"rand.Uint", "rand.Float32(", "rand.Float64(", "rand.Perm(",
		"rand.Shuffle(", "rand.Read(", "rand.NormFloat64(", "rand.ExpFloat64(",
	}
	isAllowed := func(file, token string) bool {
		for _, ok := range allowed[file] {
			if ok == token {
				return true
			}
		}
		return false
	}
	for _, pkg := range packages {
		entries, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatalf("read %s: %v", pkg, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") ||
				strings.HasSuffix(name, "_test.go") || excludedFiles[name] {
				continue
			}
			data, err := os.ReadFile(filepath.Join(pkg, name))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				// Strip line comments: prose may legitimately discuss the
				// wall clock.
				if idx := strings.Index(line, "//"); idx >= 0 {
					line = line[:idx]
				}
				for _, token := range forbidden {
					if strings.Contains(line, token) && !isAllowed(name, token) {
						t.Errorf("%s/%s:%d uses %q — inject a vclock.Clock or a seeded *rand.Rand instead (or add a justified allowance here)",
							pkg, name, i+1, token)
					}
				}
			}
		}
	}
}
