package forest

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestDecomposeTree(t *testing.T) {
	g := gen.RandomTree(300, rng.New(1))
	d, _, err := Decompose(g, 1, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g, 1); err != nil {
		t.Fatal(err)
	}
	if d.NumForests() > 4 {
		t.Fatalf("tree decomposed into %d forests, bound is 4", d.NumForests())
	}
}

func TestDecomposeFamilies(t *testing.T) {
	r := rng.New(2)
	cases := []struct {
		name  string
		g     *graph.Graph
		alpha int
	}{
		{"path", gen.Path(100), 1},
		{"star", gen.Star(100), 1},
		{"grid", gen.Grid(15, 15), 2},
		{"union3", gen.UnionOfTrees(250, 3, r.Split(1)), 3},
		{"ktree4", gen.KTree(200, 4, r.Split(2)), 4},
		{"pa3", gen.PreferentialAttachment(300, 3, r.Split(3)), 3},
		{"isolated", graph.MustNew(10, nil), 1},
		{"single", graph.MustNew(1, nil), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, _, err := Decompose(c.g, c.alpha, congest.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(c.g, c.alpha); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDecomposeRejectsBadAlpha(t *testing.T) {
	if _, _, err := Decompose(gen.Path(5), 0, congest.Options{Seed: 1}); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}

func TestLevelsPositiveAndBounded(t *testing.T) {
	g := gen.UnionOfTrees(400, 2, rng.New(3))
	d, _, err := Decompose(g, 2, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range d.Levels {
		if l < 1 {
			t.Fatalf("vertex %d has level %d", v, l)
		}
	}
	if d.NumLevels > phases(g.N()) {
		t.Fatalf("levels %d exceed phase budget %d (fallback triggered on correct alpha)", d.NumLevels, phases(g.N()))
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	// The schedule is phases(n)+2 rounds, i.e. O(log n).
	for _, n := range []int{16, 256, 4096} {
		g := gen.UnionOfTrees(n, 2, rng.New(uint64(n)))
		_, res, err := Decompose(g, 2, congest.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != phases(n)+2 {
			t.Fatalf("n=%d: %d rounds, want %d", n, res.Rounds, phases(n)+2)
		}
	}
}

func TestValidateCatchesOverCount(t *testing.T) {
	// Validation against a too-small alpha must fail when the forest count
	// exceeds (2+ε)alpha.
	g := gen.KTree(100, 5, rng.New(4))
	d, _, err := Decompose(g, 5, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumForests() <= 4 {
		t.Skip("decomposition unexpectedly small; nothing to check")
	}
	if err := d.Validate(g, 1); err == nil {
		t.Fatal("validate accepted alpha=1 for a 5-tree")
	}
}

func TestUnderestimatedAlphaStillTotal(t *testing.T) {
	// With alpha=1 on a 3-arboricity graph the fallback level fires, but
	// every edge must still land in exactly one acyclic forest.
	g := gen.UnionOfTrees(150, 3, rng.New(5))
	d, _, err := Decompose(g, 1, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Validate with a generous alpha so only structure is checked.
	if err := d.Validate(g, d.NumForests()); err != nil {
		t.Fatal(err)
	}
	for v, l := range d.Levels {
		if l < 1 {
			t.Fatalf("vertex %d unleveled", v)
		}
	}
}

// pathForest builds k disjoint paths of l vertices each.
func pathForest(k, l int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		base := i * l
		for j := 1; j < l; j++ {
			edges = append(edges, graph.Edge{U: base + j - 1, V: base + j})
		}
	}
	return graph.MustNew(k*l, edges)
}

// parentLinks counts parent pointers across all forests (must equal the
// edge count: every edge lands in exactly one forest).
func parentLinks(d *Decomposition) int {
	total := 0
	for _, parent := range d.Parent {
		for _, p := range parent {
			if p >= 0 {
				total++
			}
		}
	}
	return total
}

func TestDecomposeSingleVertex(t *testing.T) {
	g := graph.MustNew(1, nil)
	d, res, err := Decompose(g, 1, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g, 1); err != nil {
		t.Fatal(err)
	}
	if d.Levels[0] != 1 || d.NumLevels != 1 {
		t.Fatalf("single vertex leveled %d/%d, want 1/1", d.Levels[0], d.NumLevels)
	}
	if parentLinks(d) != 0 {
		t.Fatal("edgeless graph produced parent links")
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestDecomposeStarInvariants(t *testing.T) {
	// A star peels in exactly two levels: every leaf has degree 1 ≤ 4α and
	// goes in the first phase; the hub's residual degree then drops to 0.
	g := gen.Star(64)
	d, _, err := Decompose(g, 1, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g, 1); err != nil {
		t.Fatal(err)
	}
	if d.NumLevels != 2 || d.Levels[0] != 2 {
		t.Fatalf("hub level %d of %d, want 2 of 2", d.Levels[0], d.NumLevels)
	}
	for v := 1; v < g.N(); v++ {
		if d.Levels[v] != 1 {
			t.Fatalf("leaf %d at level %d, want 1", v, d.Levels[v])
		}
	}
	if got := parentLinks(d); got != g.M() {
		t.Fatalf("parent links %d != edges %d", got, g.M())
	}
}

func TestDecomposeForestOfPaths(t *testing.T) {
	// Disjoint paths: max degree 2 ≤ 4α, so the whole graph peels in one
	// level and the α=1 bound of 4 forests must hold with room to spare.
	g := pathForest(8, 25)
	d, _, err := Decompose(g, 1, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g, 1); err != nil {
		t.Fatal(err)
	}
	if d.NumLevels != 1 {
		t.Fatalf("paths leveled in %d phases, want 1", d.NumLevels)
	}
	if d.NumForests() > 4 {
		t.Fatalf("%d forests for a forest of paths, bound is 4", d.NumForests())
	}
	if got := parentLinks(d); got != g.M() {
		t.Fatalf("parent links %d != edges %d", got, g.M())
	}
}

func TestParallelDriverIdentical(t *testing.T) {
	g := gen.UnionOfTrees(200, 2, rng.New(6))
	a, _, err := Decompose(g, 2, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Decompose(g, 2, congest.Options{Seed: 3, Driver: congest.DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Levels {
		if a.Levels[v] != b.Levels[v] {
			t.Fatalf("levels differ at %d", v)
		}
	}
	if a.NumForests() != b.NumForests() {
		t.Fatal("forest counts differ")
	}
	for f := range a.Parent {
		for v := range a.Parent[f] {
			if a.Parent[f][v] != b.Parent[f][v] {
				t.Fatalf("forest %d parent differs at %d", f, v)
			}
		}
	}
}

func TestForestsUsableByColeVishkin(t *testing.T) {
	// Every forest of a decomposition must be a valid rooted forest: at
	// most one parent per node and acyclic — the contract Cole-Vishkin
	// needs. Validate() checks acyclicity; here we additionally check the
	// parent maps are usable to build forest graphs of the right size.
	g := gen.Grid(12, 12)
	d, _, err := Decompose(g, 2, congest.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, parent := range d.Parent {
		for _, p := range parent {
			if p >= 0 {
				total++
			}
		}
	}
	if total != g.M() {
		t.Fatalf("parent links %d != edges %d", total, g.M())
	}
}
