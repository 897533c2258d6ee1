// Layout suite: the cache-conscious vertex ordering must be invisible at
// every user-visible surface. Within a layout, all drivers stay
// bit-identical (clean and faulted); across layouts, a clean sequential
// run produces the same external-ID statuses; and each layout's traced
// run pins its own golden fingerprint — layout is part of run identity,
// so drift in any pinned value is a determinism break.
package congest_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/mis/base"
	"repro/internal/mis/ftmetivier"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestCrossDriverLayouts runs the full driver matrix under the
// non-identity layout, clean and faulted: within a layout the engine's
// bit-identity guarantee must hold exactly as it does for identity.
func TestCrossDriverLayouts(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	plans := faultPlans(g)
	name := string(layout.DegSort)
	runMatrix(t, "metivier/"+name, g, congest.Options{Seed: 77, Layout: name}, metivier.Run)
	opts := congest.Options{Seed: 33, Faults: plans[len(plans)-1].plan, MaxRounds: 400, Layout: name}
	runMatrix(t, "ftmetivier/"+name+"/composed", g, opts, ftmetivier.Run)
}

// TestLayoutInvariantMIS is the layout-transparency contract: a clean
// sequential run reports external-ID statuses, so the computed MIS must
// be byte-identical across every layout — the relabeling can change how
// memory is walked, never what is computed.
func TestLayoutInvariantMIS(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"union", gen.UnionOfTrees(300, 2, rng.New(12))},
		{"pa", gen.PreferentialAttachment(256, 4, rng.New(9))},
		{"grid", gen.Grid(16, 17)},
	}
	for _, tc := range graphs {
		var ref []base.Status
		for _, lo := range layout.Orderings() {
			st, _, err := metivier.Run(tc.g, congest.Options{Seed: 77, Layout: string(lo)})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, lo, err)
			}
			if err := base.VerifyStatuses(tc.g, st); err != nil {
				t.Fatalf("%s/%s: invalid MIS: %v", tc.name, lo, err)
			}
			if ref == nil {
				ref = st
				continue
			}
			for v := range st {
				if st[v] != ref[v] {
					t.Fatalf("%s: node %d status %v under %s, %v under identity",
						tc.name, v, st[v], lo, ref[v])
				}
			}
		}
	}
}

// TestGoldenLayoutFingerprints pins one traced clean run per layout on
// the multicore golden graph. Identity must stay on the engine's
// long-standing pinned fingerprint (relabeling OFF is byte-for-byte the
// pre-layout engine); degsort pins its own value, checked across the
// sequential and pool drivers. Any drift here must be deliberate
// (re-derive and update, as with golden_test.go).
func TestGoldenLayoutFingerprints(t *testing.T) {
	want := map[layout.Ordering]uint64{
		layout.Identity: 0x12754683fe80ac53,
		layout.DegSort:  0x4a63d15d437c03a3,
	}
	n := 4096
	edges := make([]graph.Edge, 0, n/2)
	for v := 0; v+1 < n/2; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g := graph.MustNew(n, edges)
	for _, lo := range layout.Orderings() {
		var fps []uint64
		for _, d := range []struct {
			name string
			set  func(*congest.Options)
		}{
			{"sequential", func(o *congest.Options) { o.Driver = congest.DriverSequential }},
			{"pool-8", func(o *congest.Options) { o.Driver = congest.DriverPool; o.Workers = 8 }},
		} {
			rec := trace.NewRecorder(0)
			opts := congest.Options{Seed: 424242, Events: rec, Layout: string(lo)}
			d.set(&opts)
			st, _, err := metivier.Run(g, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", lo, d.name, err)
			}
			if err := base.VerifyStatuses(g, st); err != nil {
				t.Fatalf("%s/%s: invalid MIS: %v", lo, d.name, err)
			}
			fps = append(fps, rec.Fingerprint())
			if fp := rec.Fingerprint(); fp != want[lo] {
				t.Errorf("%s/%s: deterministic fingerprint %#x, want %#x", lo, d.name, fp, want[lo])
			}
		}
		if fps[0] != fps[1] {
			t.Fatalf("%s: sequential fingerprint %#x != pool %#x", lo, fps[0], fps[1])
		}
	}
}

// TestLayoutUnknownRejected checks the error surface: an unrecognized
// ordering must fail the run with the layout package's contextual error,
// not fall back silently.
func TestLayoutUnknownRejected(t *testing.T) {
	g := gen.UnionOfTrees(32, 2, rng.New(1))
	_, _, err := metivier.Run(g, congest.Options{Seed: 1, Layout: "hilbert"})
	if err == nil {
		t.Fatal("unknown layout accepted")
	}
	want := `layout: unknown ordering "hilbert" (want identity|degsort)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}
