package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"commopt/internal/diag"
	"commopt/internal/programs"
	"commopt/internal/zpl"
)

var update = flag.Bool("update", false, "rewrite golden files")

func lintSource(t *testing.T, name, src string) *diag.List {
	t.Helper()
	prog, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	list := diag.NewList(name, src)
	Run(prog, list)
	return list
}

func fixtures(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/*.zpl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata fixtures: %v", err)
	}
	return files
}

// TestGolden renders each fixture's findings (with excerpts) and compares
// against its .golden file. Run with -update to regenerate.
func TestGolden(t *testing.T) {
	for _, f := range fixtures(t) {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			list := lintSource(t, filepath.Base(f), string(src))
			var buf bytes.Buffer
			list.Text(&buf, true)

			golden := f[:len(f)-len(".zpl")] + ".golden"
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/lint -update): %v", err)
			}
			if buf.String() != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
			}
		})
	}
}

// TestFixturesCoverEveryRule guards against a registered rule that no
// fixture exercises (and would therefore never be golden-tested).
func TestFixturesCoverEveryRule(t *testing.T) {
	covered := map[string]bool{}
	for _, f := range fixtures(t) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range lintSource(t, filepath.Base(f), string(src)).Findings {
			covered[fd.Rule] = true
		}
	}
	for _, r := range Rules() {
		if !covered[r.ID] {
			t.Errorf("no fixture triggers rule %s", r.ID)
		}
	}
}

// TestCleanCorpus requires every shipped example and benchmark program to
// lint clean — the acceptance bar for zplvet over the repo's own sources.
func TestCleanCorpus(t *testing.T) {
	examples, err := filepath.Glob("../../examples/zpl/*.zpl")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, f := range examples {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if list := lintSource(t, filepath.Base(f), string(src)); len(list.Findings) > 0 {
			t.Errorf("%s not clean:\n%v", f, list.Findings)
		}
	}
	for _, b := range programs.Suite() {
		if list := lintSource(t, b.Name, b.Source); len(list.Findings) > 0 {
			t.Errorf("benchmark %s not clean:\n%v", b.Name, list.Findings)
		}
	}
}
