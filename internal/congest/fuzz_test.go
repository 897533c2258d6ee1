package congest_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/metivier"
	"repro/internal/trace"
)

// fuzzMaxRounds caps fuzzed runs: Métivier is not drop-tolerant, so a
// run under message drops may never halt, and both drivers must then
// abort alike at the cap.
const fuzzMaxRounds = 300

// fuzzCase is one decoded fuzz input: a graph of 1..64 vertices, a seed,
// a pool worker count in 1..4, a layout, and an optional drop plan.
type fuzzCase struct {
	g       *graph.Graph
	seed    uint64
	workers int
	layout  string
	drop    float64 // 0 = reliable network
}

// decodeFuzzCase maps arbitrary bytes onto a valid case. Byte 0 sizes the
// graph, byte 1 picks the worker count, byte 2's low bit the layout and
// its next bit a drop plan whose probability (1%..32%) byte 3 sets; the
// remaining bytes are edge endpoints in pairs, reduced mod n, self-loops
// skipped. Short inputs fill the header with zeros.
func decodeFuzzCase(seed uint64, data []byte) fuzzCase {
	var hdr [4]byte
	copy(hdr[:], data)
	rest := data[min(len(data), len(hdr)):]
	n := int(hdr[0])%64 + 1
	c := fuzzCase{seed: seed, workers: int(hdr[1])%4 + 1, layout: "identity"}
	if hdr[2]&1 != 0 {
		c.layout = "degsort"
	}
	if hdr[2]&2 != 0 {
		c.drop = float64(int(hdr[3])%32+1) / 100
	}
	var edges []graph.Edge
	for i := 0; i+1 < len(rest) && len(edges) < 4*n; i += 2 {
		u, v := int(rest[i])%n, int(rest[i+1])%n
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	c.g = graph.MustNew(n, edges)
	return c
}

// fuzzRun is one traced Métivier run's observable outcome.
type fuzzRun struct {
	res    congest.Result
	err    string
	fp     uint64
	status []base.Status
}

func (c fuzzCase) run(driver congest.DriverKind) fuzzRun {
	rec := trace.NewRecorder(0)
	opts := congest.Options{
		Seed: c.seed, Driver: driver, Workers: c.workers, Layout: c.layout,
		MaxRounds: fuzzMaxRounds, Events: rec,
	}
	if c.drop > 0 {
		opts.Faults = faultsim.BernoulliDrop{P: c.drop}
	}
	st, res, err := metivier.Run(c.g, opts)
	out := fuzzRun{res: res, fp: rec.Fingerprint(), status: st}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// FuzzDriversAgree is the differential check between the in-process
// drivers: on any small graph, seed, worker count, layout and drop plan,
// the sequential driver and the pool must report the same Result, error
// and deterministic trace fingerprint, and a clean run must yield a valid
// MIS.
func FuzzDriversAgree(f *testing.F) {
	f.Add(uint64(1), []byte{7, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Add(uint64(2), []byte{15, 2, 1, 0, 0, 8, 1, 8, 2, 8, 3, 8, 4, 9, 5, 9, 6, 9, 7, 9})
	f.Add(uint64(3), []byte{31, 3, 2, 4, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})
	f.Add(uint64(4), []byte{63, 3, 3, 20, 0, 63, 1, 62, 2, 61, 3, 60, 10, 20, 20, 30})
	f.Add(uint64(5), []byte{0})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		c := decodeFuzzCase(seed, data)
		seq, pool := c.run(congest.DriverSequential), c.run(congest.DriverPool)
		if seq.err != pool.err {
			t.Fatalf("errors differ: sequential %q, pool %q", seq.err, pool.err)
		}
		if seq.res != pool.res {
			t.Fatalf("Results differ: sequential %+v, pool %+v", seq.res, pool.res)
		}
		if seq.fp != pool.fp {
			t.Fatalf("fingerprints differ: sequential %#x, pool %#x", seq.fp, pool.fp)
		}
		if c.drop > 0 {
			return
		}
		if seq.err != "" {
			t.Fatalf("clean run failed: %s", seq.err)
		}
		if err := c.g.VerifyMIS(base.MISSet(seq.status)); err != nil {
			t.Fatalf("clean run produced an invalid MIS: %v", err)
		}
	})
}
