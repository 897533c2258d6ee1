package dynmis

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Incremental repair: re-run the CONGEST shattering machinery on the
// repair region only, with everything outside the region frozen.
//
// The region splits into two classes:
//
//   - *frozen-dominated* vertices are adjacent to an MIS vertex outside
//     the region. The frozen neighbor keeps its membership, so these
//     vertices are already dominated and barred from joining; they take
//     no part in the repair run — exclusion is how the boundary
//     constraint is enforced (a node that cannot join and is already
//     covered has nothing left to decide).
//   - *free* vertices are re-decided from scratch: the repair run is the
//     Métivier priority protocol (the workhorse inside the paper's
//     tree/bounded-arboricity pipeline) on the subgraph induced by the
//     free vertices, executed on the zero-allocation congest.Wire engine
//     with whichever driver the engine was configured with.
//
// Correctness of the composition (see DESIGN.md S28 for the full
// argument): free vertices are never adjacent to an outside MIS vertex
// (those are frozen-dominated by definition), region growth guarantees
// every outside non-MIS vertex keeps a dominator outside the region, and
// the only MIS vertices inside a region are violated seeds — so stitching
// the repair run's output over the region into the frozen outside yields
// a maximal independent set of the whole graph.

// repairSeed derives the deterministic CONGEST seed for batch b: a pure
// function of (engine seed, batch index), so replays and cross-driver runs
// agree regardless of what earlier batches did.
func repairSeed(seed uint64, batch int) uint64 {
	return rng.New(seed).Split(uint64(batch)).Uint64()
}

// repair re-decides the region and folds the run into the maintained set.
// region is sorted ascending; rep's region accounting fields are filled by
// the caller.
func (e *Engine) repair(region []int, rep *BatchReport) error {
	// Split the region: frozen-dominated out, free in. The subgraph keeps
	// ascending-ID order, so local IDs are a deterministic relabeling.
	free := e.free[:0]
	for _, v := range region {
		if e.blockedByFrozenMIS(v) {
			if e.inMIS[v] {
				// An MIS vertex adjacent to an outside MIS vertex would be a
				// pre-existing independence violation — impossible while the
				// maintained set is valid between batches.
				return fmt.Errorf("dynmis: internal: MIS vertex %d frozen-dominated", v)
			}
			e.local[v] = -1
			continue
		}
		e.local[v] = int32(len(free))
		free = append(free, v)
	}
	e.free = free

	edges := e.edges[:0]
	for i, v := range free {
		for _, w := range e.d.adj[v] {
			if e.mark[w] != e.epoch || e.local[w] < 0 {
				continue // outside the region or frozen-dominated
			}
			if j := int(e.local[w]); i < j {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	e.edges = edges
	sub, err := graph.New(len(free), edges)
	if err != nil {
		return fmt.Errorf("dynmis: build repair subgraph: %w", err)
	}

	rec := trace.NewRecorder(repairRingSize)
	opts := congest.Options{
		Seed:      repairSeed(e.opts.Seed, rep.Batch),
		Driver:    e.opts.Driver,
		Workers:   e.opts.Workers,
		MaxRounds: e.opts.MaxRounds,
		Events:    rec,
	}
	statuses, res, err := metivier.Run(sub, opts)
	if err != nil {
		return fmt.Errorf("dynmis: repair run (batch %d, region %d): %w", rep.Batch, len(region), err)
	}
	for i, v := range free {
		e.inMIS[v] = statuses[i] == base.StatusInMIS
	}
	for _, v := range region {
		if e.local[v] < 0 {
			e.inMIS[v] = false // frozen-dominated: covered from outside
		}
	}

	rep.Free = len(free)
	rep.Frozen = len(region) - len(free)
	rep.Rounds = res.Rounds
	rep.Messages = res.Messages
	rep.RepairFingerprint = rec.Fingerprint()
	return nil
}

// repairRingSize bounds the per-repair trace ring. The running fingerprint
// covers the whole event stream regardless of ring capacity, and repair
// regions are small, so a modest ring keeps per-batch allocation flat.
const repairRingSize = 1 << 10
