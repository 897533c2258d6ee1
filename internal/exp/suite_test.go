package exp

import (
	"os"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/distrib"
)

// TestMain lets this test binary double as the misnode worker: the dist
// suite and E21 spawn self-exec fleets, which re-run the binary with the
// worker socket in the environment.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// TestMetivierSuitesQuick runs every suite's quick cell list and checks
// the report independently of runSuite's own group check: counters and
// fingerprints agree within each layout of a group, the traced modes
// share one fingerprint, and every wall and rate is positive.
func TestMetivierSuitesQuick(t *testing.T) {
	for _, name := range suiteNames {
		t.Run(name, func(t *testing.T) {
			s, err := metivierSuite(name, sizeQuick)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runSuite(s, 3)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Suite != name || rep.Seed != 3 || rep.GoMaxProcs < 1 || rep.NumCPU < 1 {
				t.Fatalf("report metadata wrong: %+v", rep)
			}
			if len(rep.Rows) != len(s.Groups)*len(s.Cells) {
				t.Fatalf("%d rows for %d groups × %d cells", len(rep.Rows), len(s.Groups), len(s.Cells))
			}
			if err := checkBars(rep.Bars); err != nil {
				t.Fatalf("quick slice enforced a bar: %v", err)
			}
			type key struct {
				family, layout string
				n              int
			}
			ref := map[key]Row{}
			tracedFP := ""
			for _, r := range rep.Rows {
				if r.WallNS <= 0 || r.MessagesPerSec <= 0 || r.Speedup <= 0 || r.Rounds <= 0 {
					t.Fatalf("%s: non-positive measurement: %+v", r.name(), r)
				}
				if r.FingerprintClean == "" {
					t.Fatalf("%s: no fingerprint", r.name())
				}
				k := key{r.Family, r.Layout, r.N}
				if first, ok := ref[k]; !ok {
					ref[k] = r
				} else if r.Rounds != first.Rounds || r.Messages != first.Messages ||
					r.FingerprintClean != first.FingerprintClean || r.FingerprintFaulted != first.FingerprintFaulted {
					t.Fatalf("%s disagrees with %s: %+v vs %+v", r.name(), first.name(), r, first)
				}
				if r.Trace != "off" {
					if r.Events == 0 {
						t.Fatalf("%s: traced run recorded no events", r.name())
					}
					if tracedFP == "" {
						tracedFP = r.FingerprintClean
					} else if r.FingerprintClean != tracedFP {
						t.Fatalf("%s: traced fingerprint %s != %s", r.name(), r.FingerprintClean, tracedFP)
					}
				}
			}
			if rows := rep.Table().NumRows(); rows != len(rep.Rows) {
				t.Fatalf("table has %d rows, report %d", rows, len(rep.Rows))
			}
			switch name {
			case "trace":
				if tracedFP == "" {
					t.Fatal("trace suite ran no traced mode")
				}
			case "scale":
				for _, r := range rep.Rows {
					if r.FingerprintFaulted == "" {
						t.Fatalf("%s: faulted cell has no faulted fingerprint", r.name())
					}
				}
			case "dist":
				seq := rep.Rows[0]
				if seq.Driver != congest.DriverSequential.String() || seq.FingerprintFaulted == "" || rep.FaultPlan != distFaults.name {
					t.Fatalf("sequential reference row or fault plan wrong: %+v (plan %q)", seq, rep.FaultPlan)
				}
				for _, r := range rep.Rows[1:] {
					if r.Driver != congest.DriverDistributed.String() || r.Workers != r.WorkersRequested || r.Workers < 1 {
						t.Fatalf("%s: not a distributed fleet row: %+v", r.name(), r)
					}
					if r.FingerprintClean != seq.FingerprintClean || r.FingerprintFaulted != seq.FingerprintFaulted {
						t.Fatalf("%s: fingerprints %s/%s != sequential %s/%s", r.name(),
							r.FingerprintClean, r.FingerprintFaulted, seq.FingerprintClean, seq.FingerprintFaulted)
					}
					if r.FrameBytesPerRound <= 0 || r.MeanRTTNS <= 0 {
						t.Fatalf("%s: transport cost missing: %+v", r.name(), r)
					}
				}
			case "layout":
				if len(ref) != len(s.Groups)*2 {
					t.Fatalf("expected 2 layouts per group, got %d layout groups", len(ref))
				}
			}
		})
	}
	if _, err := metivierSuite("engine", sizeQuick); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

func TestE21DistributedDriverQuick(t *testing.T) {
	rep, err := E21DistributedDriver(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The sequential reference plus the two quick fleet shapes.
	if rep.ID != "E21" || rep.Table.NumRows() != 3 {
		t.Fatalf("unexpected report shape: id=%s rows=%d", rep.ID, rep.Table.NumRows())
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "every fleet reproduced the sequential fingerprints") {
		t.Fatalf("notes missing the fingerprint verdict: %q", rep.Notes)
	}
}

// TestRunEngineBench covers the alloc suite's engine comparison: both
// in-process drivers measured on identical work, with identical counters.
func TestRunEngineBench(t *testing.T) {
	rep, err := runSuite(allocSuite(256, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("expected 2 driver rows, got %d", len(rep.Rows))
	}
	names := map[string]bool{}
	for _, r := range rep.Rows {
		names[r.Driver] = true
		if r.Rounds != rep.Rows[0].Rounds || r.Messages != rep.Rows[0].Messages {
			t.Fatalf("driver %s counters diverge: %+v", r.Driver, r)
		}
		if r.WallNS <= 0 || r.MessagesPerSec <= 0 || r.Rounds <= 0 {
			t.Fatalf("driver %s has non-positive throughput: %+v", r.Driver, r)
		}
	}
	for _, want := range []string{congest.DriverSequential.String(), congest.DriverPool.String()} {
		if !names[want] {
			t.Fatalf("driver %q missing from report", want)
		}
	}
	if rep.Rows[0].N != 256 || rep.Seed != 3 || rep.Algorithm == "" || rep.GoMaxProcs < 1 {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
}

// TestRunTraceBench covers the trace suite: all three tracing modes
// measured on identical work, with identical counters and identical
// event counts and fingerprints across the traced modes.
func TestRunTraceBench(t *testing.T) {
	rep, err := runSuite(traceSuite(256, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "trace" || rep.Seed != 3 || rep.Algorithm != "metivier" {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("expected 3 modes, got %d", len(rep.Rows))
	}
	off, ring, jsonl := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if off.Trace != "off" || ring.Trace != "ring" || jsonl.Trace != "jsonl" {
		t.Fatalf("mode order wrong: %+v", rep.Rows)
	}
	if off.Events != 0 {
		t.Fatalf("off baseline carries trace events: %+v", off)
	}
	for _, r := range rep.Rows {
		if r.Driver != congest.DriverPool.String() || r.N != 256 {
			t.Fatalf("mode %s: wrong cell %+v", r.Trace, r)
		}
		if r.WallNS <= 0 || r.Rounds != off.Rounds || r.Messages != off.Messages {
			t.Fatalf("mode %s: bad entry %+v", r.Trace, r)
		}
	}
	if ring.Events == 0 || ring.Events != jsonl.Events || ring.FingerprintClean != jsonl.FingerprintClean {
		t.Fatalf("traced modes disagree: ring %+v, jsonl %+v", ring, jsonl)
	}
}

// TestCheckGroup feeds fabricated rows to the group-agreement check.
func TestCheckGroup(t *testing.T) {
	row := func(layout, driver, fp, faulted string) Row {
		return Row{Family: "union-a2", N: 64, Layout: layout, Driver: driver, Trace: "off",
			Rounds: 5, Messages: 100, FingerprintClean: fp, FingerprintFaulted: faulted}
	}
	seq, pool := congest.DriverSequential.String(), congest.DriverPool.String()
	ok := []Row{
		row("identity", seq, "0xa", "0xf"), row("identity", pool, "0xa", "0xf"),
		row("degsort", seq, "0xb", "0xf"), row("degsort", pool, "0xb", "0xf"),
	}
	if err := checkGroup(ok); err != nil {
		t.Fatalf("agreeing rows rejected: %v", err)
	}
	counters := row("", pool, "0xa", "")
	counters.Messages++
	stalled := row("", pool, "0xa", "0xf")
	stalled.FaultedStalled = true
	for name, rows := range map[string][]Row{
		"clean fingerprint":   {row("", seq, "0xa", ""), row("", pool, "0xb", "")},
		"faulted fingerprint": {row("", seq, "0xa", "0xf"), row("", pool, "0xa", "0xe")},
		"stall":               {row("", seq, "0xa", "0xf"), stalled},
		"counters":            {row("", seq, "0xa", ""), counters},
	} {
		if err := checkGroup(rows); err == nil {
			t.Errorf("divergent %s accepted", name)
		}
	}
}

// TestCheckBars feeds fabricated values to checkBars through each bar's
// derivation: at-bar values pass, sub-bar values fail, and a bar below
// its minimum n does not apply.
func TestCheckBars(t *testing.T) {
	cases := []struct {
		name string
		bars []Bar
		ok   bool
	}{
		{"layout at bar", layoutBar.at(nil, 1<<20, "x", 1.15), true},
		{"layout below bar", layoutBar.at(nil, 1<<20, "x", 1.149), false},
		{"layout below min n", layoutBar.at(nil, 1<<19, "x", 0.5), true},
		{"dynmis at bar", dynmisBar.at(nil, 1<<16, "x", 10), true},
		{"dynmis below bar", dynmisBar.at(nil, 1<<16, "x", 9.99), false},
		{"dynmis below min n", dynmisBar.at(nil, 1<<14, "x", 2), true},
		{"trace at budget", traceBar.at(nil, 1<<14, "x", 15), true},
		{"trace over budget", traceBar.at(nil, 1<<14, "x", 15.01), false},
		{"faults clean", faultBar.at(nil, 128, "x", 0), true},
		{"faults violated", faultBar.at(nil, 128, "x", 1), false},
	}
	for _, c := range cases {
		if err := checkBars(c.bars); (err == nil) != c.ok {
			t.Errorf("%s: checkBars = %v, want ok=%t", c.name, err, c.ok)
		}
	}

	// traceBars: ring overhead over the off row at n = 2^14, pool driver.
	pool := congest.DriverPool.String()
	ring := func(n int, speedup float64) []Row {
		return []Row{{N: n, Driver: pool, Trace: "off", Speedup: 1}, {N: n, Driver: pool, Trace: "ring", Speedup: speedup}}
	}
	if err := checkBars(traceBars(ring(1<<14, 1/1.149))); err != nil {
		t.Errorf("14.9%% ring overhead rejected: %v", err)
	}
	if err := checkBars(traceBars(ring(1<<14, 1/1.2))); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("20%% ring overhead accepted: %v", err)
	}
	if bars := traceBars(ring(1<<9, 0.1)); len(bars) != 0 {
		t.Errorf("trace bar applied below 2^14: %+v", bars)
	}

	// layoutBars: the densest family at the largest n decides.
	seq := congest.DriverSequential.String()
	rows := []Row{
		{Family: "grid", N: 1 << 20, M: 10, Layout: "degsort", Driver: seq, Speedup: 2},
		{Family: "union-a4", N: 1 << 20, M: 40, Layout: "identity", Driver: seq, Speedup: 1},
		{Family: "union-a4", N: 1 << 20, M: 40, Layout: "degsort", Driver: seq, Speedup: 1.1},
		{Family: "union-a4", N: 1 << 20, M: 40, Layout: "degsort", Driver: pool, Speedup: 3},
		{Family: "union-a4", N: 1 << 18, M: 90, Layout: "degsort", Driver: seq, Speedup: 3},
	}
	bars := layoutBars(rows)
	if len(bars) != 1 || bars[0].Value != 1.1 || checkBars(bars) == nil {
		t.Errorf("layout bar picked the wrong cell: %+v", bars)
	}
	rows[2].Speedup = 1.15
	if err := checkBars(layoutBars(rows)); err != nil {
		t.Errorf("at-bar layout speedup rejected: %v", err)
	}
}
