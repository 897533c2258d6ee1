// Command graphgen emits a generated graph as an edge list ("n m" header,
// one "u v" line per edge) on stdout — the format cmd/arbmis -stdin reads.
//
// Usage:
//
//	graphgen -family union -n 1024 -alpha 3 -seed 7 > graph.edges
//
// With -stream the command instead emits a seeded replayable update
// stream for the dynamic-MIS engine (internal/dynmis) as JSONL: a header
// line carrying the base-graph parameters and stream knobs, then one line
// per batch. The header makes the file self-describing — replaying it
// needs nothing but the file:
//
//	graphgen -family union -n 4096 -alpha 3 -seed 7 \
//	    -stream -stream-batches 64 -stream-batch-size 16 \
//	    -stream-locality 0.2 -stream-churn 0.05 -stream-seed 11 > u.stream
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/rng"
)

func main() {
	os.Exit(run())
}

// usageError reports a bad flag combination on stderr together with the
// flag summary, and returns the exit code.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func run() int {
	family := flag.String("family", "union", "graph family: "+gen.Families)
	n := flag.Int("n", 1024, "number of vertices")
	alpha := flag.Int("alpha", 2, "arboricity parameter (union/pa)")
	p := flag.Float64("p", 0.01, "edge probability (gnp) / radius (rgg)")
	seed := flag.Uint64("seed", 1, "generator seed")
	layoutName := flag.String("layout", "", "relabel vertices before output: identity|degsort|bfs (default identity)")
	stream := flag.Bool("stream", false, "emit a JSONL update stream for the generated graph instead of an edge list")
	streamBatches := flag.Int("stream-batches", 64, "update batches to generate (with -stream)")
	streamBatchSize := flag.Int("stream-batch-size", 16, "updates per batch (with -stream)")
	streamLocality := flag.Float64("stream-locality", 0.0, "probability in [0,1] an update targets a recently-touched vertex (with -stream)")
	streamChurn := flag.Float64("stream-churn", 0.0, "probability in [0,1] an update is node churn (with -stream)")
	streamSeed := flag.Uint64("stream-seed", 1, "update-stream generator seed (with -stream)")
	flag.Parse()

	// Validate before generating: a bad flag must produce a usage message,
	// not a panic or empty output. gen.Family checks the family parameters.
	ordering, err := layout.Parse(*layoutName)
	if err != nil {
		return usageError("%v", err)
	}
	if *stream && ordering != layout.Identity {
		// A stream header replays the base graph from its generator
		// parameters alone; a relabeled base would not be reconstructible.
		return usageError("-layout cannot be combined with -stream")
	}
	if !*stream {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-stream-batches", *streamBatches != 64},
			{"-stream-batch-size", *streamBatchSize != 16},
			{"-stream-locality", *streamLocality != 0},
			{"-stream-churn", *streamChurn != 0},
			{"-stream-seed", *streamSeed != 1},
		} {
			if f.set {
				return usageError("%s requires -stream", f.name)
			}
		}
	}
	if *stream {
		if *streamBatches <= 0 {
			return usageError("-stream-batches must be positive, got %d", *streamBatches)
		}
		if *streamBatchSize <= 0 {
			return usageError("-stream-batch-size must be positive, got %d", *streamBatchSize)
		}
		if *streamLocality < 0 || *streamLocality > 1 {
			return usageError("-stream-locality must be in [0,1], got %v", *streamLocality)
		}
		if *streamChurn < 0 || *streamChurn > 1 {
			return usageError("-stream-churn must be in [0,1], got %v", *streamChurn)
		}
	}

	g, err := gen.Family(*family, *n, *alpha, *p, *seed)
	if err != nil {
		return usageError("%v", err)
	}
	if ordering != layout.Identity {
		perm, _, err := layout.Compute(g, ordering)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		if perm != nil {
			if g, err = graph.Relabel(g, perm); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
		}
	}
	if *stream {
		cfg := dynmis.StreamConfig{
			Batches:   *streamBatches,
			BatchSize: *streamBatchSize,
			Locality:  *streamLocality,
			Churn:     *streamChurn,
		}
		batches, err := dynmis.UpdateStream(g, cfg, rng.New(*streamSeed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		hdr := &dynmis.StreamHeader{
			Family:     *family,
			N:          *n,
			Alpha:      *alpha,
			P:          *p,
			Seed:       *seed,
			StreamSeed: *streamSeed,
			Batches:    *streamBatches,
			BatchSize:  *streamBatchSize,
			Locality:   *streamLocality,
			Churn:      *streamChurn,
		}
		if err := dynmis.WriteStream(os.Stdout, hdr, batches); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	if err := g.WriteEdgeList(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	return 0
}
