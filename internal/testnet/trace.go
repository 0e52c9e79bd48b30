package testnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceHash fingerprints a run trace. Two same-seed runs of a scenario
// must produce equal hashes — this is the determinism contract the CI
// tier enforces.
func TraceHash(trace string) string {
	sum := sha256.Sum256([]byte(trace))
	return hex.EncodeToString(sum[:])
}

// AssertReplay compares two traces that were produced by the same spec
// and seed. On divergence it returns an error pinpointing the first
// differing line, so a broken determinism seam is attributed to the
// subsystem whose trace section diverged instead of "hashes differ".
func AssertReplay(a, b string) error {
	if a == b {
		return nil
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Errorf("testnet: replay diverged at line %d:\n  run A: %s\n  run B: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Errorf("testnet: replay diverged in length: %d vs %d lines (first %d equal)", len(la), len(lb), n)
}

// Result is one scenario run: the full deterministic trace, its hash,
// aggregate counters and the expectation diff (empty = scenario passed).
type Result struct {
	Spec  Spec
	Trace string
	Hash  string
	// Diff lists every violated expectation; an empty Diff means the run
	// matched the spec's declared verdict matrix and fleet outcome.
	Diff []string

	// Fleet-phase totals across all audits.
	Accepted, Rejected, Timeouts, Errors int
	// Drifted lists provers flagged by the drift phase, in fleet order.
	Drifted []string
}

// Passed reports whether the run met every expectation.
func (r *Result) Passed() bool { return len(r.Diff) == 0 }

// Cell is one (tenant, prover) entry of the verdict matrix: how every
// audit between the pair was classified.
type Cell struct {
	Accepted       int
	TimingReject   int
	MACReject      int
	RoundsReject   int
	PositionReject int
	OtherReject    int
	Timeout        int
	Error          int
}

// total is the number of audits folded into the cell.
func (c Cell) total() int {
	return c.Accepted + c.TimingReject + c.MACReject + c.RoundsReject +
		c.PositionReject + c.OtherReject + c.Timeout + c.Error
}

// add folds another cell in.
func (c *Cell) add(o Cell) {
	c.Accepted += o.Accepted
	c.TimingReject += o.TimingReject
	c.MACReject += o.MACReject
	c.RoundsReject += o.RoundsReject
	c.PositionReject += o.PositionReject
	c.OtherReject += o.OtherReject
	c.Timeout += o.Timeout
	c.Error += o.Error
}

// String renders the cell for trace lines.
func (c Cell) String() string {
	return fmt.Sprintf("acc=%d tim=%d mac=%d rnd=%d pos=%d oth=%d to=%d err=%d",
		c.Accepted, c.TimingReject, c.MACReject, c.RoundsReject,
		c.PositionReject, c.OtherReject, c.Timeout, c.Error)
}
