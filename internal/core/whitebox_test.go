package core

import (
	"testing"
	"testing/quick"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
	"repro/internal/rng"
)

func TestScheduleArithmetic(t *testing.T) {
	// RoundsPerScale and TotalRounds pin the slot layout the node state
	// machine decodes: 3 rounds per iteration + degree exchange + bad test.
	p := &Params{Alpha: 2, Delta: 40, NumScales: 3, Iterations: 4, P: 1, RhoOptOut: true}
	p.fillScales(func(k int) int { return 10 >> uint(k) })
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.RoundsPerScale() != 3*4+2 {
		t.Fatalf("RoundsPerScale = %d", p.RoundsPerScale())
	}
	if p.TotalRounds() != 3*(3*4+2) {
		t.Fatalf("TotalRounds = %d", p.TotalRounds())
	}
	nd := &node{params: p}
	// Slot 0 is scale 1; the last slot of scale 1 is RoundsPerScale-1.
	if nd.scaleOf(0) != 1 || nd.scaleOf(p.RoundsPerScale()-1) != 1 {
		t.Fatal("scale 1 boundary wrong")
	}
	if nd.scaleOf(p.RoundsPerScale()) != 2 {
		t.Fatal("scale 2 start wrong")
	}
	if nd.scaleOf(p.TotalRounds()-1) != 3 {
		t.Fatal("last scale wrong")
	}
}

func TestWinsSemantics(t *testing.T) {
	mk := func(from int, val uint64, compete bool) congest.Message {
		return congest.Message{From: from, Wire: proto.Priority{Value: val, Competitive: compete}.Wire()}
	}
	nd := &node{compete: true, priority: 100}
	// Beats lower competitive priorities and all non-competitive ones.
	if !nd.wins(5, []congest.Message{mk(1, 99, true), mk(2, 1000, false)}) {
		t.Fatal("should win against lower/non-competitive")
	}
	// Loses to a higher competitive priority.
	if nd.wins(5, []congest.Message{mk(1, 101, true)}) {
		t.Fatal("should lose to higher priority")
	}
	// Tie broken by sender ID: higher ID wins.
	if nd.wins(5, []congest.Message{mk(9, 100, true)}) {
		t.Fatal("tie against higher ID should lose")
	}
	if !nd.wins(5, []congest.Message{mk(3, 100, true)}) {
		t.Fatal("tie against lower ID should win")
	}
	// Non-competitive nodes never win, even against nothing.
	nd.compete = false
	if nd.wins(5, nil) {
		t.Fatal("non-competitive node won")
	}
}

func TestRhoOptOutOnStar(t *testing.T) {
	// On a star with ρ forced to 1, the hub (degree n-1) must never join
	// during Algorithm 1 — it is never competitive — so it ends dominated
	// (a leaf joins) with overwhelming probability, or deferred.
	g := gen.Star(64)
	params := PracticalParams(1, g.MaxDegree())
	for k := 1; k <= params.NumScales; k++ {
		params.SetRho(k, 1)
	}
	hubJoined := 0
	for seed := uint64(0); seed < 20; seed++ {
		out, err := RunAlg1(g, params, congest.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if out.Statuses[0] == base.StatusInMIS {
			hubJoined++
		}
	}
	if hubJoined != 0 {
		t.Fatalf("opted-out hub joined the MIS in %d/20 runs", hubJoined)
	}
}

func TestArbMISQuickProperty(t *testing.T) {
	// Randomized end-to-end property: any union-of-trees graph, any α in
	// range, any seed → verified MIS.
	r := rng.New(90)
	if err := quick.Check(func(seed uint64) bool {
		rr := r.Split(seed)
		n := 50 + rr.Intn(300)
		alpha := 1 + rr.Intn(4)
		g := gen.UnionOfTrees(n, alpha, rr.Split(1))
		params := PracticalParams(alpha, g.MaxDegree())
		out, err := ArbMIS(g, params, congest.Options{Seed: rr.Uint64()})
		if err != nil {
			return false
		}
		return g.VerifyMIS(out.MIS) == nil
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestArbMISRelabelInvariance(t *testing.T) {
	// Relabeling vertices must not break anything (IDs are only
	// tie-breakers): the relabeled instance still yields a verified MIS
	// of the relabeled graph.
	g := gen.UnionOfTrees(200, 2, rng.New(91))
	perm := rng.New(92).Perm(g.N())
	h, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	params := PracticalParams(2, h.MaxDegree())
	out, err := ArbMIS(h, params, congest.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestArbMISLargeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := gen.UnionOfTrees(1<<15, 3, rng.New(93))
	params := PracticalParams(3, g.MaxDegree())
	out, err := ArbMIS(g, params, congest.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
	if out.TotalRounds() > 500 {
		t.Fatalf("n=2^15 took %d rounds", out.TotalRounds())
	}
}

func TestOutcomeAccessors(t *testing.T) {
	g := gen.UnionOfTrees(150, 2, rng.New(94))
	params := PracticalParams(2, g.MaxDegree())
	out, err := ArbMIS(g, params, congest.Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalMessages() <= 0 {
		t.Fatal("no messages accounted")
	}
	if out.MaxMessageBits() <= 0 || out.MaxMessageBits() > 128 {
		t.Fatalf("MaxMessageBits = %d", out.MaxMessageBits())
	}
}

func TestNewParamsConstructor(t *testing.T) {
	p := NewParams(2, 64, 1, 3, 5, func(k int) int { return 64 >> uint(k) })
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumScales != 3 || p.Iterations != 5 {
		t.Fatalf("params = %+v", p)
	}
	if p.Rho(1) != 32 || p.Rho(2) != 16 {
		t.Fatalf("rho = %d,%d", p.Rho(1), p.Rho(2))
	}
	if p.HighDeg(1) != 64/2+2 || p.BadLimit(1) != 64/8 {
		t.Fatalf("thresholds wrong: %d %d", p.HighDeg(1), p.BadLimit(1))
	}
	// Clamps: negative theta -> 0; p < 1 -> 1; lambda floor when scales > 0.
	p2 := NewParams(1, 10, 0, -5, 0, func(int) int { return 1 })
	if p2.NumScales != 0 || p2.P != 1 {
		t.Fatalf("clamps wrong: %+v", p2)
	}
	p3 := NewParams(1, 10, 1, 2, 0, func(int) int { return 1 })
	if p3.Iterations != 1 {
		t.Fatalf("lambda floor wrong: %d", p3.Iterations)
	}
}

func TestFullOutcomeTotalRoundsNoCore(t *testing.T) {
	// A graph the preprocessing fully resolves: Core is nil and
	// TotalRounds is just the reduction cost.
	g := gen.Path(8)
	out, err := ArbMISFull(g, 1, 5, congest.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if out.Core == nil && out.TotalRounds() != out.ReductionResult.Rounds {
		t.Fatal("TotalRounds wrong without core stage")
	}
	if err := g.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
}
