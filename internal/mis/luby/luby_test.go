package luby

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/rng"
)

func families(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r := rng.New(100)
	return map[string]*graph.Graph{
		"path":     gen.Path(60),
		"cycle":    gen.Cycle(61),
		"star":     gen.Star(45),
		"tree":     gen.RandomTree(250, r.Split(1)),
		"grid":     gen.Grid(10, 14),
		"gnp":      gen.GNP(120, 0.12, r.Split(2)),
		"union3":   gen.UnionOfTrees(150, 3, r.Split(3)),
		"isolated": graph.MustNew(7, nil),
	}
}

func TestAlgorithmAProducesMIS(t *testing.T) {
	for name, g := range families(t) {
		t.Run(name, func(t *testing.T) {
			statuses, _, err := RunA(g, congest.Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if err := base.VerifyStatuses(g, statuses); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlgorithmBProducesMIS(t *testing.T) {
	for name, g := range families(t) {
		t.Run(name, func(t *testing.T) {
			statuses, _, err := RunB(g, congest.Options{Seed: 12})
			if err != nil {
				t.Fatal(err)
			}
			if err := base.VerifyStatuses(g, statuses); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlgorithmBManySeeds(t *testing.T) {
	g := gen.UnionOfTrees(80, 2, rng.New(7))
	for seed := uint64(0); seed < 20; seed++ {
		statuses, _, err := RunB(g, congest.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := base.VerifyStatuses(g, statuses); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAlgorithmAManySeeds(t *testing.T) {
	g := gen.GNP(90, 0.1, rng.New(8))
	for seed := uint64(0); seed < 20; seed++ {
		statuses, _, err := RunA(g, congest.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := base.VerifyStatuses(g, statuses); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestNewASaturatesRange(t *testing.T) {
	// n large enough that n^4 overflows: factory must still work.
	f := NewA(1 << 20)
	nd := f(0).(*nodeA)
	if nd.rangeMax != ^uint64(0) {
		t.Fatalf("rangeMax = %d, want saturation", nd.rangeMax)
	}
}

func TestNewATinyN(t *testing.T) {
	statusesG := graph.MustNew(1, nil)
	statuses, _, err := RunA(statusesG, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0] != base.StatusInMIS {
		t.Fatal("singleton not in MIS")
	}
}

func TestBParallelDriverIdentical(t *testing.T) {
	g := gen.RandomTree(150, rng.New(9))
	seq, seqRes, err := RunB(g, congest.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, parRes, err := RunB(g, congest.Options{Seed: 4, Driver: congest.DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes != parRes {
		t.Fatalf("stats differ: %+v vs %+v", seqRes, parRes)
	}
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestBCompleteGraphPicksOne(t *testing.T) {
	g := gen.GNP(15, 1, rng.New(1))
	for seed := uint64(0); seed < 8; seed++ {
		statuses, _, err := RunB(g, congest.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.SetSize(base.MISSet(statuses)); got != 1 {
			t.Fatalf("K15 MIS size %d", got)
		}
	}
}

func TestBRoundsLogarithmic(t *testing.T) {
	g := gen.GNP(400, 0.05, rng.New(2))
	_, res, err := RunB(g, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3*12*9 { // generous O(log n) check
		t.Fatalf("took %d rounds", res.Rounds)
	}
}
