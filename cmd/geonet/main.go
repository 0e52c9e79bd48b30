// Command geonet runs the deterministic adversarial scenario testnet.
//
// Usage:
//
//	geonet list                          # list the built-in scenario library
//	geonet run -scenario relay-attack    # run one scenario, diff vs expectations
//	geonet run -spec my.json -trace      # run a JSON spec fixture, dump the trace
//	geonet replay -scenario churn-storm  # run twice, require byte-identical traces
//	geonet replay -all                   # replay the whole library (CI entry point)
//
// Exit status is non-zero when a scenario violates its declared
// expectation matrix or when a replay diverges.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/testnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "geonet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: geonet <list|run|replay> [flags]")
	}
	switch args[0] {
	case "list":
		return list()
	case "run":
		return runCmd(args[1:])
	case "replay":
		return replayCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want list, run or replay)", args[0])
	}
}

func list() error {
	for _, s := range testnet.Library() {
		fmt.Printf("%-18s provers=%-3d tenants=%-5d ticks=%-3d %s\n",
			s.Name, proverCount(s), s.Tenants, s.Ticks, s.Description)
	}
	return nil
}

func proverCount(s testnet.Spec) int {
	n := 0
	for _, g := range s.Provers {
		n += g.Count
	}
	return n
}

// loadSpec resolves the -scenario / -spec / -seed flag combination shared
// by run and replay.
func loadSpec(scenario, specPath string, seed int64) (testnet.Spec, error) {
	var spec testnet.Spec
	switch {
	case scenario != "" && specPath != "":
		return spec, fmt.Errorf("-scenario and -spec are mutually exclusive")
	case scenario != "":
		s, err := testnet.Lookup(scenario)
		if err != nil {
			return spec, err
		}
		spec = s
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return spec, err
		}
		s, err := testnet.ParseSpec(data)
		if err != nil {
			return spec, fmt.Errorf("%s: %w", specPath, err)
		}
		spec = s
	default:
		return spec, fmt.Errorf("need -scenario <name> or -spec <file.json>")
	}
	if seed != 0 {
		spec.Seed = seed
	}
	return spec, nil
}

func report(res *testnet.Result, verbose, trace bool) error {
	if trace {
		fmt.Print(res.Trace)
	}
	fmt.Printf("%s: audits accepted=%d rejected=%d timeouts=%d errors=%d",
		res.Spec.Name, res.Accepted, res.Rejected, res.Timeouts, res.Errors)
	if len(res.Drifted) > 0 {
		fmt.Printf(" drifted=%d", len(res.Drifted))
	}
	fmt.Printf(" trace=%s\n", res.Hash[:12])
	if verbose {
		for _, name := range res.Drifted {
			fmt.Printf("  drifted: %s\n", name)
		}
	}
	for _, d := range res.Diff {
		fmt.Printf("  EXPECTATION VIOLATED: %s\n", d)
	}
	if !res.Passed() {
		return fmt.Errorf("%s: %d expectation(s) violated", res.Spec.Name, len(res.Diff))
	}
	return nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scenario := fs.String("scenario", "", "library scenario name (see geonet list)")
	specPath := fs.String("spec", "", "path to a JSON scenario spec")
	seed := fs.Int64("seed", 0, "override the spec seed (0 = keep)")
	verbose := fs.Bool("v", false, "print per-prover drift detail")
	trace := fs.Bool("trace", false, "dump the full deterministic trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*scenario, *specPath, *seed)
	if err != nil {
		return err
	}
	res, err := testnet.Run(spec)
	if err != nil {
		return err
	}
	return report(res, *verbose, *trace)
}

func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	scenario := fs.String("scenario", "", "library scenario name (see geonet list)")
	specPath := fs.String("spec", "", "path to a JSON scenario spec")
	seed := fs.Int64("seed", 0, "override the spec seed (0 = keep)")
	all := fs.Bool("all", false, "replay every library scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var specs []testnet.Spec
	if *all {
		specs = testnet.Library()
	} else {
		spec, err := loadSpec(*scenario, *specPath, *seed)
		if err != nil {
			return err
		}
		specs = []testnet.Spec{spec}
	}
	failed := 0
	for _, spec := range specs {
		res, err := testnet.Replay(spec)
		if err != nil {
			fmt.Printf("%-18s REPLAY DIVERGED: %v\n", spec.Name, err)
			failed++
			continue
		}
		fmt.Printf("%-18s replay ok trace=%s", spec.Name, res.Hash[:12])
		if len(res.Diff) > 0 {
			fmt.Printf(" (%d expectation violation(s))", len(res.Diff))
			failed++
		}
		fmt.Println()
		for _, d := range res.Diff {
			fmt.Printf("  EXPECTATION VIOLATED: %s\n", d)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) failed", failed)
	}
	return nil
}
