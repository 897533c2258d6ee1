package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// csrEqual reports whether two graphs have identical CSR contents: same
// vertex count and byte-for-byte identical sorted adjacency rows.
func csrEqual(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func invert(perm []int) []int {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	return inv
}

// TestRelabelRoundTrip is Relabel's core safety property: relabeling
// by any permutation and then by its inverse must reproduce the original CSR
// exactly, across every generator family in the suite.
func TestRelabelRoundTrip(t *testing.T) {
	r := rng.New(20260808)
	rggGraph, _ := gen.RandomGeometric(200, 0.12, r.Split(6))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", gen.RandomTree(257, r.Split(1))},
		{"union", gen.UnionOfTrees(256, 3, r.Split(2))},
		{"grid", gen.Grid(16, 17)},
		{"gnp", gen.GNP(128, 0.07, r.Split(4))},
		{"pa", gen.PreferentialAttachment(256, 4, r.Split(5))},
		{"rgg", rggGraph},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			n := f.g.N()
			for trial := 0; trial < 4; trial++ {
				perm := rng.New(uint64(trial + 7)).Perm(n)
				h, err := graph.Relabel(f.g, perm)
				if err != nil {
					t.Fatalf("trial %d: Relabel: %v", trial, err)
				}
				if h.M() != f.g.M() {
					t.Fatalf("trial %d: relabeled m=%d, want %d", trial, h.M(), f.g.M())
				}
				back, err := graph.Relabel(h, invert(perm))
				if err != nil {
					t.Fatalf("trial %d: inverse Relabel: %v", trial, err)
				}
				if !csrEqual(back, f.g) {
					t.Fatalf("trial %d: perm/inverse round trip does not reproduce the CSR", trial)
				}
			}
		})
	}
}

// TestRelabelDegenerate pins the edge cases: identity and reversal
// permutations, and the single-vertex graph, where off-by-ones in the
// offsets rebuild would hide.
func TestRelabelDegenerate(t *testing.T) {
	ring := func(n int) *graph.Graph {
		edges := make([]graph.Edge, n)
		for v := 0; v < n; v++ {
			edges[v] = graph.Edge{U: v, V: (v + 1) % n}
		}
		return graph.MustNew(n, edges)
	}
	identity := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	reversal := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = n - 1 - i
		}
		return p
	}
	cases := []struct {
		name string
		g    *graph.Graph
		perm []int
		// check validates the relabeled graph beyond the round trip.
		check func(t *testing.T, h *graph.Graph)
	}{
		{"identity", ring(8), identity(8), func(t *testing.T, h *graph.Graph) {
			if !csrEqual(h, ring(8)) {
				t.Fatal("identity permutation changed the CSR")
			}
		}},
		{"reversal", ring(8), reversal(8), func(t *testing.T, h *graph.Graph) {
			// Reversing a ring yields a ring: vertex p's neighbors are p±1 mod 8.
			for p := 0; p < 8; p++ {
				nbrs := h.Neighbors(p)
				if len(nbrs) != 2 {
					t.Fatalf("reversed ring vertex %d has %d neighbors", p, len(nbrs))
				}
			}
		}},
		{"single-vertex", graph.MustNew(1, nil), []int{0}, func(t *testing.T, h *graph.Graph) {
			if h.N() != 1 || h.M() != 0 {
				t.Fatalf("single-vertex relabel: n=%d m=%d", h.N(), h.M())
			}
		}},
		{"empty", graph.MustNew(0, nil), nil, func(t *testing.T, h *graph.Graph) {
			if h.N() != 0 {
				t.Fatalf("empty relabel: n=%d", h.N())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := graph.Relabel(tc.g, tc.perm)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, h)
			inv := invert(tc.perm)
			back, err := graph.Relabel(h, inv)
			if err != nil {
				t.Fatal(err)
			}
			if !csrEqual(back, tc.g) {
				t.Fatal("round trip does not reproduce the CSR")
			}
		})
	}
}

func TestRelabelRejectsBadPerms(t *testing.T) {
	g := gen.Grid(3, 3)
	bad := [][]int{
		{0, 1, 2},                         // wrong length
		{0, 1, 2, 3, 4, 5, 6, 7, 9},       // out of range
		{0, 1, 2, 3, 4, 5, 6, 7, -1},      // negative
		{0, 1, 2, 3, 4, 5, 6, 7, 7},       // duplicate
		make([]int, 9),                    // all zeros: duplicate
	}
	for i, perm := range bad {
		t.Run(fmt.Sprintf("case-%d", i), func(t *testing.T) {
			if _, err := graph.Relabel(g, perm); err == nil {
				t.Fatalf("Relabel accepted invalid permutation %v", perm)
			}
		})
	}
}
