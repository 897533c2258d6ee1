// Package layout computes cache-conscious vertex orderings: permutations
// that renumber a graph's vertices so the engine's per-vertex arrays are
// walked in a locality-friendly order. The engine applies an ordering at
// ingest (congest.Options.Layout), storing vertices in permuted
// "internal" order while every user-visible surface keeps the original
// "external" IDs; it maps each ingest row through the permutation and
// never builds a relabeled copy of the graph.
//
// An ordering is a pure function of the graph — no randomness, no
// wall-clock, no map iteration — so the same graph always yields the same
// permutation and relabeled runs stay bit-identical across drivers. The
// permutation convention matches graph.Relabel: perm[v] is the new
// (internal) ID of original vertex v, and inv[p] recovers the original ID
// of internal vertex p.
package layout

import (
	"fmt"

	"repro/internal/graph"
)

// Ordering names a vertex-relabeling strategy.
type Ordering string

const (
	// Identity keeps the ingest labeling: internal and external IDs
	// coincide and the engine stores nothing extra. The default.
	Identity Ordering = "identity"
	// DegSort orders vertices by degree descending, ties broken by
	// original ID ascending. High-degree hubs land at the front of the
	// CSR arrays, so the rows touched most often share cache lines.
	DegSort Ordering = "degsort"
)

// Orderings lists every supported ordering, Identity first.
func Orderings() []Ordering { return []Ordering{Identity, DegSort} }

// Parse resolves an ordering name. The empty string means Identity, so
// zero-valued options keep today's behavior; an unknown name is an error
// (never a panic) with the accepted set in the message.
func Parse(s string) (Ordering, error) {
	switch Ordering(s) {
	case "", Identity:
		return Identity, nil
	case DegSort:
		return DegSort, nil
	default:
		return "", fmt.Errorf("layout: unknown ordering %q (want identity|degsort)", s)
	}
}

// Compute returns the permutation for an ordering over g: perm maps
// original ID → internal ID and inv maps internal ID → original ID.
// Identity returns (nil, nil, nil) — the caller stores nothing and
// builds no permuted rows, which is what keeps the default path
// byte-for-byte identical to the pre-layout engine.
func Compute(g *graph.Graph, o Ordering) (perm, inv []int, err error) {
	switch o {
	case Identity:
		return nil, nil, nil
	case DegSort:
		inv = degsortOrder(g)
	default:
		return nil, nil, fmt.Errorf("layout: unknown ordering %q (want identity|degsort)", o)
	}
	return Invert(inv), inv, nil
}

// Invert returns the inverse of the permutation p: Invert(p)[p[i]] = i.
func Invert(p []int) []int {
	q := make([]int, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// degsortOrder returns the visitation order (internal → original) of the
// DegSort ordering: degree descending, ties by original ID ascending.
// It is a stable bucket sort by degree in O(n + Δ): vertices are filed in
// ascending ID order into per-degree buckets laid out from the highest
// degree down. The returned slice holds external (original) IDs.
//
//idspace:returns external
func degsortOrder(g *graph.Graph) []int {
	n := g.N()
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	// next[d] counts degree-d vertices, then becomes the slot of the next
	// one: after every vertex of higher degree.
	next := make([]int, maxDeg+1)
	for v := 0; v < n; v++ {
		next[g.Degree(v)]++
	}
	pos := 0
	for d := maxDeg; d >= 0; d-- {
		next[d], pos = pos, pos+next[d]
	}
	order := make([]int, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		order[next[d]] = v
		next[d]++
	}
	return order
}
