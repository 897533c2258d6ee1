package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/distrib"
)

// TestMain lets the test binary double as a fleet worker, as main does.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &f
}

// declared returns BENCHMARK.json's metric units by name for one mode.
func (f *benchmarkFile) declared(traced bool) map[string]string {
	out := map[string]string{}
	if traced {
		for _, m := range f.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range f.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkFileIsWellFormed(t *testing.T) {
	f := loadBenchmarkFile(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !legalName.MatchString(n) {
			t.Errorf("illegal name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	var got []string
	for _, w := range f.Workloads {
		name(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`BENCHMARK.json needs setup_s in unit "s", better "lower"`)
	}
	for _, m := range f.PerLayer {
		name(m.Name)
	}
	for _, traced := range []bool{false, true} {
		for n, u := range f.declared(traced) {
			if !legalUnit.MatchString(u) {
				t.Errorf("%s: illegal unit %q", n, u)
			}
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", f.RunSeconds)
	}
}

func tinyConfig(t *testing.T, seed uint64, traced bool) config {
	return config{seed: seed, traced: traced, sizes: tinySizes, spansDir: t.TempDir()}
}

// TestTinyRuns runs every workload at tiny size in both modes and checks
// that the run is correct and emits exactly the metrics BENCHMARK.json
// declares, with their units.
func TestTinyRuns(t *testing.T) {
	f := loadBenchmarkFile(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			for _, seed := range []uint64{1, 7} {
				res, env, err := measure(w, tinyConfig(t, seed, traced))
				if err != nil {
					t.Fatalf("%s traced=%v seed=%d: %v", w.name, traced, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minRuns {
					t.Errorf("%s traced=%v seed=%d: correct=%v attempted=%d failed=%d",
						w.name, traced, seed, res.Correct, res.Attempted, res.Failed)
				}
				if env.N == 0 || env.M == 0 || env.MaxDegree == 0 || env.Seed != seed {
					t.Errorf("%s: environment not recorded: %+v", w.name, env)
				}
				decl := f.declared(traced)
				for n, m := range res.Metrics {
					if u, ok := decl[n]; !ok {
						t.Errorf("%s traced=%v: emits undeclared metric %s", w.name, traced, n)
					} else if u != m.Unit {
						t.Errorf("%s: metric %s has unit %s, declared %s", w.name, n, m.Unit, u)
					}
				}
				for n := range decl {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("%s traced=%v: declared metric %s not emitted", w.name, traced, n)
					}
				}
				if !traced {
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s: end-to-end metric %s is %v", w.name, n, m.Value)
						}
					}
				}
			}
		}
	}
	// Every fleet was closed and took its temp directory with it.
	if left, _ := filepath.Glob(filepath.Join(tmp, "misfleet-*")); len(left) > 0 {
		t.Errorf("fleet temp dirs left behind: %v", left)
	}
}

// exactCounts are the per-layer metrics that must repeat exactly.
var exactCounts = regexp.MustCompile(`^(congest\.(rounds|messages)|core\.(alg1_rounds|alg1_msgs|deferred_nodes|bad_nodes)|dynmis\.(region_.*|free_mean|repair_rounds_mean|repairs|batch_samples)|faultsim\.(dropped|drop_frac|coverage|violations)|rng\..*|trace\.events)$`)

func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, _, err := measure(w, tinyConfig(t, 3, true))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := measure(w, tinyConfig(t, 3, true))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range a.Metrics {
			if exactCounts.MatchString(n) {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			t.Fatal("no exact counts matched")
		}
		for _, n := range names {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s is %v then %v", w.name, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}

// TestCorruptedOutputCounted corrupts one run's output on every workload
// and checks that exactly that run counts as failed.
func TestCorruptedOutputCounted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, 1, traced)
			cfg.corrupt = true
			res, _, err := measure(w, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if res.Correct || res.Failed != 1 {
				t.Errorf("%s traced=%v: corrupted output not caught (attempted %d, failed %d)",
					w.name, traced, res.Attempted, res.Failed)
			}
			if traced && res.Metrics["fail_ratio"].Value <= 0 {
				t.Errorf("%s: fail_ratio %v with a corrupted run", w.name, res.Metrics["fail_ratio"].Value)
			}
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nonesuch"},
		{"--workload", "bulk-union", "--seconds", "0"},
		{"--workload", "bulk-union", "--trace", "2"},
		{"--workload", "bulk-union", "extra"},
	} {
		var out, errOut strings.Builder
		if code := cli(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("cli(%q) = %d with output %q; want 2 and no result", args, code, out.String())
		}
	}
}
