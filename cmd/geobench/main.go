// Command geobench regenerates every table and worked analysis of the
// GeoProof paper from the library's own components. Its output is a pure
// function of -seed; performance is measured by bench/run.sh.
//
// Usage:
//
//	geobench            # print every experiment (E1-E10)
//	geobench -exp 6     # print one experiment
//	geobench -seed 7    # change the simulation seed
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geobench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.Int("exp", 0, "experiment number 1-10 (0 = all)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	type gen func() (experiments.Table, error)
	gens := map[int]gen{
		1:  func() (experiments.Table, error) { return experiments.TableI(), nil },
		2:  func() (experiments.Table, error) { return experiments.TableII(*seed), nil },
		3:  func() (experiments.Table, error) { return experiments.TableIII(*seed), nil },
		4:  experiments.E4Setup,
		5:  func() (experiments.Table, error) { return experiments.E5Detection(*seed) },
		6:  func() (experiments.Table, error) { return experiments.E6Relay(*seed) },
		7:  func() (experiments.Table, error) { return experiments.E7TimingBudget(), nil },
		8:  func() (experiments.Table, error) { return experiments.E8DistanceBounding(*seed) },
		9:  func() (experiments.Table, error) { return experiments.E9Geolocation(*seed) },
		10: func() (experiments.Table, error) { return experiments.E10Ablations(*seed) },
	}
	order := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if *exp != 0 {
		g, ok := gens[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %d", *exp)
		}
		t, err := g()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		return nil
	}
	for _, id := range order {
		t, err := gens[id]()
		if err != nil {
			return fmt.Errorf("experiment %d: %w", id, err)
		}
		t.Render(os.Stdout)
	}
	return nil
}
