package ghaffari

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/rng"
)

func TestProducesMISOnFamilies(t *testing.T) {
	r := rng.New(200)
	cases := map[string]*graph.Graph{
		"path":     gen.Path(60),
		"star":     gen.Star(45),
		"tree":     gen.RandomTree(250, r.Split(1)),
		"grid":     gen.Grid(10, 14),
		"gnp":      gen.GNP(120, 0.12, r.Split(2)),
		"union4":   gen.UnionOfTrees(150, 4, r.Split(3)),
		"pa":       gen.PreferentialAttachment(200, 3, r.Split(4)),
		"isolated": graph.MustNew(5, nil),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			statuses, _, err := Run(g, congest.Options{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			if err := base.VerifyStatuses(g, statuses); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManySeeds(t *testing.T) {
	g := gen.UnionOfTrees(100, 3, rng.New(6))
	for seed := uint64(0); seed < 20; seed++ {
		statuses, _, err := Run(g, congest.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := base.VerifyStatuses(g, statuses); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestParallelDriverIdentical(t *testing.T) {
	g := gen.Grid(12, 12)
	seq, seqRes, err := Run(g, congest.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	par, parRes, err := Run(g, congest.Options{Seed: 5, Driver: congest.DriverPool})
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

func TestDesireLevelsStayDyadicAndBounded(t *testing.T) {
	// White-box: run manually and inspect p30 values at the end.
	g := gen.GNP(80, 0.15, rng.New(3))
	r := congest.NewRunner(g, New(), congest.Options{Seed: 9})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		nd := r.Node(v).(*node)
		if nd.p30 == 0 {
			t.Fatalf("node %d desire underflowed to 0", v)
		}
		if nd.p30 > uint32(fixedOne/2) {
			t.Fatalf("node %d desire %d above 1/2", v, nd.p30)
		}
		// Dyadic check: p30 must be a power of two.
		if nd.p30&(nd.p30-1) != 0 {
			t.Fatalf("node %d desire %d not dyadic", v, nd.p30)
		}
	}
}

func TestRoundsReasonable(t *testing.T) {
	// O(log Δ) + shattering tail; generously bounded for the test.
	g := gen.GNP(500, 0.04, rng.New(4))
	_, res, err := Run(g, congest.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 4*200 {
		t.Fatalf("took %d rounds", res.Rounds)
	}
}

func TestMessageSizeSmall(t *testing.T) {
	g := gen.RandomTree(100, rng.New(5))
	_, res, err := Run(g, congest.Options{Seed: 6, MessageBitLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits > 32 {
		t.Fatalf("max message bits = %d", res.MaxMessageBits)
	}
}

func TestCompleteGraph(t *testing.T) {
	g := gen.GNP(12, 1, rng.New(1))
	statuses, _, err := Run(g, congest.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := graph.SetSize(base.MISSet(statuses)); got != 1 {
		t.Fatalf("K12 MIS size %d", got)
	}
}
