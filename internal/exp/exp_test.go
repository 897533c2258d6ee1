package exp

import (
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/trace"
)

func TestAllDriversRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are not short")
	}
	cfg := QuickConfig()
	for _, d := range All() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			rep, err := d.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != d.ID {
				t.Fatalf("report ID %q for driver %q", rep.ID, d.ID)
			}
			if rep.Table == nil || rep.Table.NumRows() == 0 {
				t.Fatal("empty table")
			}
			out := rep.String()
			if !strings.Contains(out, rep.ID) {
				t.Fatal("rendered report missing ID")
			}
		})
	}
}

func TestDriverIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if seen[d.ID] {
			t.Fatalf("duplicate driver %s", d.ID)
		}
		seen[d.ID] = true
		if d.Run == nil || d.Name == "" {
			t.Fatalf("driver %s incomplete", d.ID)
		}
	}
	if len(seen) != 27 {
		t.Fatalf("expected 27 drivers, got %d", len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.seeds() != 1 {
		t.Fatalf("zero config seeds = %d", c.seeds())
	}
	if DefaultConfig().Seeds < 2 {
		t.Fatal("default config too small")
	}
	if !QuickConfig().Quick {
		t.Fatal("quick config not quick")
	}
}

func TestOptsDeterministic(t *testing.T) {
	c := QuickConfig()
	a, b := c.opts(7, 3), c.opts(7, 3)
	if a.Seed != b.Seed {
		t.Fatal("opts not deterministic")
	}
	if c.opts(7, 4).Seed == a.Seed || c.opts(8, 3).Seed == a.Seed {
		t.Fatal("labels/replications share seeds")
	}
}

func TestOptsWirePoolDriver(t *testing.T) {
	var stats congest.DriverStats
	c := Config{Seed: 1, Driver: congest.DriverPool, Workers: 3, PoolStats: &stats}
	o := c.opts(1, 0)
	if o.Driver != congest.DriverPool || o.Workers != 3 || o.Events != trace.Sink(&stats) || !o.EventTiming {
		t.Fatalf("pool plumbing lost: %+v", o)
	}
	// A config-wide sink and the stats share the stream via fanoutSink.
	rec := trace.NewRecorder(0)
	c.Events = rec
	if fan, ok := c.opts(1, 0).Events.(fanoutSink); !ok || len(fan) != 2 || fan[0] != trace.Sink(rec) {
		t.Fatalf("PoolStats must fan out behind Config.Events, got %#v", c.opts(1, 0).Events)
	}
	if seq := (Config{Seed: 1}).opts(1, 0); seq.Events != nil || seq.EventTiming {
		t.Fatal("a config without sinks must not attach an event stream")
	}
}

func TestOptsWireEvents(t *testing.T) {
	mem := &trace.MemorySink{}
	c := Config{Seed: 1, Events: mem}
	if o := c.opts(1, 0); o.Events != trace.Sink(mem) {
		t.Fatal("events sink not plumbed through opts")
	}
	if o := (Config{Seed: 1}).opts(1, 0); o.Events != nil {
		t.Fatal("sink appeared from nowhere")
	}
}

// TestRunFaultBench covers the BENCH_faults.json producer: every scenario
// swept with zero safety violations and sane aggregates.
func TestRunFaultBench(t *testing.T) {
	rep, err := RunFaultBench(128, 3, 2, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bars) != 1 || checkBars(rep.Bars) != nil {
		t.Fatalf("safety bar missing or failed: %+v", rep.Bars)
	}
	if rep.N != 128 || rep.Seed != 3 || rep.Seeds != 2 || rep.Algorithm != "ftmetivier" {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
	scenarios := map[string]bool{}
	for _, e := range rep.Entries {
		scenarios[e.Scenario] = true
		if e.Violations != 0 {
			t.Fatalf("%s x=%v: %d violations in a successful report", e.Scenario, e.Intensity, e.Violations)
		}
		if e.Stalled < e.Runs && (e.MeanRounds <= 0 || e.Coverage < 0 || e.Coverage > 1) {
			t.Fatalf("%s x=%v: bad aggregates %+v", e.Scenario, e.Intensity, e)
		}
	}
	for _, sc := range faultScenarios() {
		if !scenarios[sc.name] {
			t.Fatalf("scenario %q missing from report", sc.name)
		}
	}
	// The p=0 drop point is a clean run: full coverage, nothing dropped.
	clean := rep.Entries[0]
	if clean.Scenario != "drop" || clean.Intensity != 0 || clean.Coverage != 1 || clean.Dropped != 0 {
		t.Fatalf("clean baseline entry wrong: %+v", clean)
	}
}

// TestE16SweepsEveryScenario checks that E16 renders the shared fault
// sweep: one table row per (scenario, intensity), every scenario present.
func TestE16SweepsEveryScenario(t *testing.T) {
	rep, err := E16FaultTolerance(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")[1:]
	scenarios := map[string]bool{}
	for _, row := range rows {
		scenarios[strings.SplitN(row, ",", 2)[0]] = true
	}
	points := 0
	for _, sc := range faultScenarios() {
		points += len(sc.intensities)
		if !scenarios[sc.name] {
			t.Errorf("scenario %q missing from the E16 table:\n%s", sc.name, rep.Table)
		}
	}
	if len(rows) != points {
		t.Errorf("E16 table has %d rows, the sweep %d points", len(rows), points)
	}
}

func TestSqrtLogShapeMonotone(t *testing.T) {
	prev := 0.0
	for _, n := range []int{16, 256, 65536, 1 << 20} {
		s := sqrtLogShape(n)
		if s <= prev {
			t.Fatalf("shape not increasing at n=%d", n)
		}
		prev = s
	}
}

func TestStressParamsTighter(t *testing.T) {
	p := stressParams(3, 100)
	if p.Iterations != 1 {
		t.Fatalf("stress iterations = %d", p.Iterations)
	}
	base := 100 / 8 // practical badLimit at scale 1: Δ/2³
	if p.BadLimit(1) != base/4 {
		t.Fatalf("stress badLimit(1) = %d, want %d", p.BadLimit(1), base/4)
	}
}
