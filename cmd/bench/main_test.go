package main

import "testing"

func TestArtifactName(t *testing.T) {
	for path, want := range map[string]string{
		"BENCH_dist.json":          "dist",
		"/tmp/x/BENCH_faults.json": "faults",
		"BENCH_alloc.json":         "alloc",
	} {
		if got, err := artifactName(path); err != nil || got != want {
			t.Errorf("artifactName(%q) = %q, %v; want %q", path, got, err, want)
		}
	}
	for _, path := range []string{"dist.json", "BENCH_nope.json", "BENCH_dist.jsonl", "x/BENCH_.json"} {
		if name, err := artifactName(path); err == nil {
			t.Errorf("artifactName(%q) = %q, want an error", path, name)
		}
	}
}

// TestUsageErrors checks that bad invocations exit 2 before any work runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "cvs", "-only", "E1"},
		{"-artifact", "dist.json"},
		{"-artifact", "BENCH_nope.json"},
		{"-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
