package layout

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// checkPermutation fails unless perm and inv are mutually inverse
// permutations of 0..n-1.
func checkPermutation(t *testing.T, n int, perm, inv []int) {
	t.Helper()
	if len(perm) != n || len(inv) != n {
		t.Fatalf("perm/inv lengths %d/%d, want %d", len(perm), len(inv), n)
	}
	seen := make([]bool, n)
	for v, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("perm is not a permutation at %d -> %d", v, p)
		}
		seen[p] = true
		if inv[p] != v {
			t.Fatalf("inv[%d] = %d, want %d", p, inv[p], v)
		}
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Ordering
	}{
		{"", Identity},
		{"identity", Identity},
		{"degsort", DegSort},
	} {
		got, err := Parse(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"hilbert", "bfs", "deg-sort", "identity "} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted an unknown ordering", bad)
		}
	}
}

func TestOrderingsListsIdentityFirst(t *testing.T) {
	all := Orderings()
	if len(all) < 2 || all[0] != Identity {
		t.Fatalf("Orderings() = %v, want Identity first and at least 2 entries", all)
	}
	for _, o := range all {
		if _, err := Parse(string(o)); err != nil {
			t.Fatalf("Orderings() entry %q does not Parse: %v", o, err)
		}
	}
}

func TestComputeIdentityIsNil(t *testing.T) {
	g := gen.UnionOfTrees(64, 2, rng.New(1))
	perm, inv, err := Compute(g, Identity)
	if err != nil || perm != nil || inv != nil {
		t.Fatalf("Compute(identity) = %v, %v, %v; want nil, nil, nil", perm, inv, err)
	}
}

func TestComputeRejectsUnknown(t *testing.T) {
	g := gen.UnionOfTrees(8, 2, rng.New(1))
	if _, _, err := Compute(g, Ordering("hilbert")); err == nil {
		t.Fatal("Compute accepted an unknown ordering")
	}
}

func TestDegSortOrder(t *testing.T) {
	g := gen.PreferentialAttachment(256, 3, rng.New(7))
	perm, inv, err := Compute(g, DegSort)
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, g.N(), perm, inv)
	for p := 1; p < g.N(); p++ {
		da, db := g.Degree(inv[p-1]), g.Degree(inv[p])
		if da < db {
			t.Fatalf("degsort not degree-descending at internal %d: %d then %d", p, da, db)
		}
		if da == db && inv[p-1] > inv[p] {
			t.Fatalf("degsort tie at degree %d not broken by ID: %d before %d", da, inv[p-1], inv[p])
		}
	}
}

// TestComputeIsPermutation checks the non-identity ordering on graphs
// with varied degree profiles, the edgeless one included.
func TestComputeIsPermutation(t *testing.T) {
	r := rng.New(99)
	for _, g := range []*graph.Graph{
		gen.RandomTree(200, r.Split(1)),
		gen.UnionOfTrees(200, 3, r.Split(2)),
		gen.GNP(100, 0.05, r.Split(3)),
		graph.MustNew(5, nil), // edgeless: every degree ties
	} {
		perm, inv, err := Compute(g, DegSort)
		if err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, g.N(), perm, inv)
	}
}

// TestComputeDeterministic re-runs every ordering on the same graph: the
// permutations must be byte-identical (layout is part of run identity, so
// any instability would break pinned fingerprints).
func TestComputeDeterministic(t *testing.T) {
	g := gen.UnionOfTrees(300, 3, rng.New(42))
	for _, o := range Orderings() {
		p1, i1, err := Compute(g, o)
		if err != nil {
			t.Fatal(err)
		}
		p2, i2, err := Compute(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(i1, i2) {
			t.Fatalf("%s: Compute is not deterministic", o)
		}
	}
}

// TestRelabeledIsomorphic checks that relabeling by the degsort
// ordering preserves the graph up to the permutation.
func TestRelabeledIsomorphic(t *testing.T) {
	g := gen.UnionOfTrees(128, 2, rng.New(9))
	perm, inv, err := Compute(g, DegSort)
	if err != nil {
		t.Fatal(err)
	}
	h, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("relabeled graph n=%d m=%d, want %d/%d", h.N(), h.M(), g.N(), g.M())
	}
	for p := 0; p < h.N(); p++ {
		v := inv[p]
		if h.Degree(p) != g.Degree(v) {
			t.Fatalf("internal %d degree %d, external %d degree %d", p, h.Degree(p), v, g.Degree(v))
		}
		for _, q := range h.Neighbors(p) {
			if !g.HasEdge(v, inv[q]) {
				t.Fatalf("relabeled edge (%d,%d) has no preimage (%d,%d)", p, q, v, inv[q])
			}
		}
	}
}
