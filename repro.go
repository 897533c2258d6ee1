// Package repro is the public API of this reproduction of Pemmaraju &
// Riaz, "Using Read-k Inequalities to Analyze a Distributed MIS Algorithm"
// (PODC 2016). It re-exports the pieces a downstream user needs:
//
//   - ComputeMIS: the paper's ArbMIS pipeline (Algorithm 1 + Algorithm 2)
//     on any graph, parameterized by an arboricity bound;
//   - the baseline MIS algorithms the paper discusses (Luby A/B, Métivier,
//     Ghaffari, Cole-Vishkin on forests);
//   - graph generators for the bounded-arboricity families the paper
//     targets;
//   - the read-k inequality toolkit (Gavinsky et al. bounds and family
//     analysis);
//   - the experiment drivers that regenerate every table in EXPERIMENTS.md.
//
// Everything runs on the in-repo CONGEST simulator: pass Options{Driver:
// DriverPool} to execute on the sharded worker-pool driver (one worker per
// CPU, each owning a contiguous vertex shard), which is bit-identical to
// the sequential driver for the same seed.
package repro

import (
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis/base"
	"repro/internal/mis/colevishkin"
	"repro/internal/mis/ghaffari"
	"repro/internal/mis/luby"
	"repro/internal/mis/metivier"
	"repro/internal/mis/tree"
	"repro/internal/readk"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Graph is an immutable simple undirected graph.
	Graph = graph.Graph
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Options configures a CONGEST run (seed, driver, limits).
	Options = congest.Options
	// Result carries round/message accounting for one run.
	Result = congest.Result
	// Params are the knobs of the paper's Algorithm 1.
	Params = core.Params
	// Outcome is the full result of an ArbMIS run.
	Outcome = core.Outcome
	// Status classifies a node after a run.
	Status = base.Status
	// DriverKind selects the engine execution strategy (see the Driver*
	// constants).
	DriverKind = congest.DriverKind
	// DriverStats aggregates the worker-pool driver's efficiency metrics;
	// attach it as Options.Events with Options.EventTiming set.
	DriverStats = congest.DriverStats
	// TraceEvent is one typed execution event (see EvRoundEnd).
	TraceEvent = trace.Event
	// TraceSink receives a run's execution events via Options.Events.
	TraceSink = trace.Sink
	// Family is a read-k family of boolean variables.
	Family = readk.Family
	// Report is a regenerated experiment table.
	Report = exp.Report
	// ExpConfig sizes an experiment sweep.
	ExpConfig = exp.Config
)

// Node statuses.
const (
	StatusInMIS     = base.StatusInMIS
	StatusDominated = base.StatusDominated
)

// Engine drivers, selected by Options.Driver.
const (
	// DriverSequential sweeps vertices in ID order on one goroutine. This
	// is the zero value.
	DriverSequential = congest.DriverSequential
	// DriverPool is the sharded worker-pool driver (GOMAXPROCS workers by
	// default; override with Options.Workers).
	DriverPool = congest.DriverPool
)

// EvRoundEnd is the per-round hook a TraceSink keys on: it closes every
// round (0 = Init) with Round, V = nodes still live, X = messages sent.
const EvRoundEnd = trace.EvRoundEnd

// NewGraph builds a graph on n vertices from an edge list (self-loops and
// out-of-range endpoints rejected, duplicates merged).
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// ComputeMIS runs the paper's full ArbMIS pipeline with the practical
// parameter profile for the given arboricity bound. The returned outcome's
// MIS field is verified before return.
func ComputeMIS(g *Graph, alpha int, opts Options) (*Outcome, error) {
	return core.ArbMIS(g, core.PracticalParams(alpha, g.MaxDegree()), opts)
}

// ComputeMISWithParams runs ArbMIS under explicit parameters (e.g.
// PaperParams for the printed constants, or a modified profile for
// ablations).
func ComputeMISWithParams(g *Graph, params *Params, opts Options) (*Outcome, error) {
	return core.ArbMIS(g, params, opts)
}

// FullOutcome is the result of the complete §3.3 pipeline, including the
// degree-reduction preprocessing.
type FullOutcome = core.FullOutcome

// ComputeMISFull runs the paper's complete recipe: degree-reduction
// preprocessing (O(√(log n·log log n)) priority iterations), then ArbMIS
// on the surviving subgraph with parameters rebuilt for the reduced Δ.
func ComputeMISFull(g *Graph, alpha int, opts Options) (*FullOutcome, error) {
	return core.ArbMISFull(g, alpha, 1, opts)
}

// BadFinisher selects the deterministic algorithm for the shattered bad
// components in ComputeMISWithFinisher.
type BadFinisher = core.BadFinisher

// Bad-component finisher choices.
const (
	// FinisherLocalMin is the local-minimum-ID sweep (default in
	// ComputeMIS).
	FinisherLocalMin = core.FinisherLocalMin
	// FinisherForestCV is the paper's Lemma 3.8 pipeline: forest
	// decomposition plus per-forest Cole-Vishkin colorings.
	FinisherForestCV = core.FinisherForestCV
)

// ComputeMISWithFinisher is ComputeMISWithParams with an explicit choice
// of bad-component finisher.
func ComputeMISWithFinisher(g *Graph, params *Params, finisher BadFinisher, opts Options) (*Outcome, error) {
	return core.ArbMISWithFinisher(g, params, finisher, opts)
}

// PracticalParams returns the laptop-scale parameter profile for Algorithm 1.
func PracticalParams(alpha, delta int) *Params { return core.PracticalParams(alpha, delta) }

// PaperParams returns the paper's literal parameter values.
func PaperParams(alpha, delta, p int) *Params { return core.PaperParams(alpha, delta, p) }

// VerifyMIS checks independence and maximality of a vertex set.
func VerifyMIS(g *Graph, inSet []bool) error { return g.VerifyMIS(inSet) }

// Baseline algorithms. Each returns the membership vector, run statistics,
// and an error only on engine misuse (never on unlucky randomness).

// Metivier runs the Métivier et al. priority MIS (O(log n) rounds whp).
func Metivier(g *Graph, opts Options) ([]bool, Result, error) {
	st, res, err := metivier.Run(g, opts)
	return misSet(st), res, err
}

// LubyA runs Luby's Algorithm A (integer priorities from {0..n⁴-1}).
func LubyA(g *Graph, opts Options) ([]bool, Result, error) {
	st, res, err := luby.RunA(g, opts)
	return misSet(st), res, err
}

// LubyB runs Luby's Algorithm B (mark with probability 1/2d(v)).
func LubyB(g *Graph, opts Options) ([]bool, Result, error) {
	st, res, err := luby.RunB(g, opts)
	return misSet(st), res, err
}

// Ghaffari runs Ghaffari's desire-level MIS (SODA 2016).
func Ghaffari(g *Graph, opts Options) ([]bool, Result, error) {
	st, res, err := ghaffari.Run(g, opts)
	return misSet(st), res, err
}

// ColeVishkin runs the deterministic O(log* n) pipeline on a rooted forest;
// parent[v] is v's parent or -1 for roots.
func ColeVishkin(g *Graph, parent []int, opts Options) ([]bool, Result, error) {
	st, res, err := colevishkin.Run(g, parent, opts)
	return misSet(st), res, err
}

// TreeMIS runs the Barenboim-Elkin-Pettie-Schneider TreeIndependentSet
// pipeline (the algorithm the paper generalizes) on a forest, with
// laptop-scale parameters.
func TreeMIS(g *Graph, opts Options) (*Outcome, error) {
	return tree.Run(g, tree.PracticalParams(g.MaxDegree()), opts)
}

// MatchingUnmatched marks a node with no partner in MaximalMatching's
// result.
const MatchingUnmatched = matching.Unmatched

// MaximalMatching computes a maximal matching (Israeli-Itai style, the
// sibling primitive the paper's introduction credits alongside Luby):
// result[v] is v's partner or MatchingUnmatched. The matching is verified
// before return.
func MaximalMatching(g *Graph, opts Options) ([]int, Result, error) {
	return matching.Run(g, opts)
}

func misSet(st []base.Status) []bool {
	if st == nil {
		return nil
	}
	return base.MISSet(st)
}

// Generators. All are deterministic in the seed.

// RandomTree returns a uniform labeled tree on n vertices (arboricity 1).
func RandomTree(n int, seed uint64) *Graph { return gen.RandomTree(n, rng.New(seed)) }

// UnionOfTrees returns the union of alpha random spanning trees
// (arboricity ≤ alpha) — the paper's workhorse bounded-arboricity family.
func UnionOfTrees(n, alpha int, seed uint64) *Graph {
	return gen.UnionOfTrees(n, alpha, rng.New(seed))
}

// Grid returns the rows×cols planar grid (arboricity 2).
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, seed uint64) *Graph { return gen.GNP(n, p, rng.New(seed)) }

// RandomGeometric returns a unit-square random geometric graph and its
// point coordinates (the sensor-network family).
func RandomGeometric(n int, radius float64, seed uint64) (*Graph, [][2]float64) {
	return gen.RandomGeometric(n, radius, rng.New(seed))
}

// PreferentialAttachment returns a Barabási–Albert graph with out-degree m
// (arboricity ≤ m, heavy-tailed degrees).
func PreferentialAttachment(n, m int, seed uint64) *Graph {
	return gen.PreferentialAttachment(n, m, rng.New(seed))
}

// ArboricityBounds estimates the arboricity of g: a Nash-Williams density
// lower bound and a degeneracy upper bound.
func ArboricityBounds(g *Graph) (lower, upper int) { return g.ArboricityBounds() }

// Read-k toolkit.

// NewFamily creates an empty read-k family over m base variables.
func NewFamily(m int) (*Family, error) { return readk.NewFamily(m) }

// ConjunctionBound is the paper's Theorem 1.1: Pr[all Y = 1] ≤ p^(n/k).
func ConjunctionBound(p float64, n, k int) float64 { return readk.ConjunctionBound(p, n, k) }

// TailBound is the paper's Theorem 1.2 form (2):
// Pr[Y ≤ (1-δ)E[Y]] ≤ exp(-δ²E[Y]/2k).
func TailBound(delta, expY float64, k int) float64 { return readk.TailForm2(delta, expY, k) }

// Experiments returns the drivers that regenerate every experiment table;
// see EXPERIMENTS.md for the index.
func Experiments() []exp.Driver { return exp.All() }

// QuickExperimentConfig returns a test-sized experiment configuration;
// FullExperimentConfig the full sweeps used by cmd/bench.
func QuickExperimentConfig() ExpConfig { return exp.QuickConfig() }

// FullExperimentConfig returns the full-size experiment configuration.
func FullExperimentConfig() ExpConfig { return exp.DefaultConfig() }
