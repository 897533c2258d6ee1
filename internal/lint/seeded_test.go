package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModule clones the real module's buildable sources into a temp dir
// so a test can seed violations without touching the working tree. Test
// files, fixture trees, and result artifacts are skipped: the analyzers
// never load them and the copy stays cheap.
func copyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	srcRoot := "../.."
	err := filepath.Walk(srcRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(srcRoot, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			switch info.Name() {
			case ".git", "testdata", "results":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(root, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return root
}

// mutate rewrites the first occurrence of anchor in path. A missing
// anchor fails loudly: it means the engine changed shape and the seeded
// violation no longer describes real code.
func mutate(t *testing.T, path, anchor, replacement string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, anchor) {
		t.Fatalf("%s: seeding anchor %q not found; update the seeded-violation test", path, anchor)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(s, anchor, replacement, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSeededViolations re-seeds the two leak shapes the interprocedural
// analyzers exist to prevent into a copy of the real module and asserts
// misvet's suite catches both: an internal (permuted) vertex ID reaching
// a trace event without the extID translation, and an engine RNG draw
// inside a pool worker goroutine. The module is clean before seeding
// (TestModuleClean), so every finding here is mutation-caused.
func TestSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a full module copy")
	}
	root := copyModule(t)

	// Seed A: drop the extID translation on the faulted path's drop
	// event, leaking the internal inbox slot into the trace stream.
	mutate(t, filepath.Join(root, "internal/congest/congest.go"),
		"W: int32(st.extID(to))", "W: int32(to)")

	// Seed B: draw from the coordinator-owned fault stream inside a pool
	// worker goroutine — randomness consumed in scheduling order.
	mutate(t, filepath.Join(root, "internal/congest/driver.go"),
		"for cmd := range start {",
		"for cmd := range start {\n\t\t\t\t_ = st.faults.Uint64()")

	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule on seeded copy: %v", err)
	}
	diags, _ := Run(m, Suite())
	var idspace, draworder int
	for _, d := range diags {
		switch d.Analyzer {
		case "idspace":
			idspace++
		case "draworder":
			draworder++
		default:
			t.Errorf("unexpected %s finding on seeded copy: %s", d.Analyzer, d)
		}
	}
	if idspace == 0 {
		t.Error("seeded internal-ID leak into a trace event not caught by idspace")
	}
	if draworder == 0 {
		t.Error("seeded worker-goroutine RNG draw not caught by draworder")
	}
}
