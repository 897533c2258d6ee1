package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Families lists the family names Family accepts.
const Families = "tree|union|grid|gnp|pa|rgg"

// Family builds an n-vertex graph of the named family from seed — the one
// constructor behind the commands' -family flags. It rejects the
// parameters the generators cannot take with an error instead of a panic
// or a silently degenerate graph: n must be positive, alpha at least 1
// for union and below n for pa, p a probability for gnp and a
// non-negative radius for rgg. grid builds the smallest square grid with
// at least n vertices.
func Family(name string, n, alpha int, p float64, seed uint64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: n must be positive, got %d", n)
	}
	r := rng.New(seed)
	switch name {
	case "tree":
		return RandomTree(n, r), nil
	case "union":
		if alpha < 1 {
			return nil, fmt.Errorf("gen: alpha must be at least 1 for family union, got %d", alpha)
		}
		return UnionOfTrees(n, alpha, r), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side), nil
	case "gnp":
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("gen: p must be a probability in [0,1] for family gnp, got %v", p)
		}
		return GNP(n, p, r), nil
	case "pa":
		if alpha < 1 || alpha >= n {
			return nil, fmt.Errorf("gen: alpha must be in [1, n) for family pa, got %d with n=%d", alpha, n)
		}
		return PreferentialAttachment(n, alpha, r), nil
	case "rgg":
		if !(p >= 0) {
			return nil, fmt.Errorf("gen: p (radius) must be non-negative for family rgg, got %v", p)
		}
		g, _ := RandomGeometric(n, p, r)
		return g, nil
	default:
		return nil, fmt.Errorf("gen: unknown family %q (want %s)", name, Families)
	}
}
