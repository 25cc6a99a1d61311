package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tolerance table in documented order: first match wins, so the
// alloc-ratio metric is judged as a ratio, not an alloc count.
func TestCompareMetric(t *testing.T) {
	cases := []struct {
		key      string
		old, new float64
		ok       bool
		rule     string
	}{
		{"on_over_off", 1.47, 2.9, true, "ratio 3x"},
		{"on_over_off", 1.47, 6.0, false, ""},
		{"a_over_b_allocs", 2.35, 2.35, true, "ratio 3x"}, // ratio, not allocs
		{"speedup", 9.3, 4.0, true, "ratio 3x"},
		{"kernel_allocs_per_op", 151, 151, true, "allocs 1.5x"},
		{"kernel_allocs_per_op", 151, 140, true, "allocs 1.5x"}, // shrinking is fine
		{"kernel_allocs_per_op", 151, 300, false, ""},
		{"pooled_ns_per_op", 5e6, 4e7, true, "ratio 10x"},
		{"pooled_ns_per_op", 5e6, 6e7, false, ""},
		{"e2e_serial_seconds", 0.38, 1.0, true, "ratio 10x"},
		{"sim_seconds", 0.203017507, 0.203017507, true, "exact"}, // simulated: exact
		{"sim_seconds", 0.203017507, 0.21, false, ""},
		{"messages", 2520, 2520, true, "exact"},
		{"messages", 2520, 2521, false, ""},
	}
	for _, c := range cases {
		rule, err := compareMetric(c.key, c.old, c.new)
		if (err == nil) != c.ok {
			t.Errorf("compareMetric(%q, %v, %v): err=%v, want ok=%v", c.key, c.old, c.new, err, c.ok)
			continue
		}
		if c.ok && rule != c.rule {
			t.Errorf("compareMetric(%q): rule %q, want %q", c.key, rule, c.rule)
		}
	}
}

// Non-numeric leaves (benchmark name, grid label) must match exactly.
func TestCompareMetricStrings(t *testing.T) {
	if _, err := compareMetric("grid", "32x32", "32x32"); err != nil {
		t.Errorf("identical strings rejected: %v", err)
	}
	if _, err := compareMetric("grid", "32x32", "64x64"); err == nil {
		t.Error("changed grid label accepted")
	}
}

// flatten turns nested arrays into indexed paths and leafKey recovers
// the metric's field name for rule matching.
func TestFlattenAndLeafKey(t *testing.T) {
	out := map[string]any{}
	flatten("", map[string]any{
		"benchmark": "B",
		"rows": []any{
			map[string]any{"procs": 64.0, "ns_per_op": 1.0},
			map[string]any{"procs": 1024.0, "ns_per_op": 2.0},
		},
	}, out)
	want := map[string]any{
		"benchmark":         "B",
		"rows[0].procs":     64.0,
		"rows[0].ns_per_op": 1.0,
		"rows[1].procs":     1024.0,
		"rows[1].ns_per_op": 2.0,
	}
	if len(out) != len(want) {
		t.Fatalf("flatten produced %v, want %v", out, want)
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("flatten[%q] = %v, want %v", k, out[k], v)
		}
	}
	if got := leafKey("rows[1].ns_per_op"); got != "ns_per_op" {
		t.Errorf("leafKey = %q", got)
	}
	if got := leafKey("benchmark"); got != "benchmark" {
		t.Errorf("leafKey = %q", got)
	}
}

// End to end over real files: a snapshot diffs cleanly against itself,
// a noisy-but-tolerable fresh run passes, and a deterministic drift or a
// vanished metric fails.
func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "BENCH_x.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(old, `{"benchmark":"B","procs":4,"pooled_ns_per_op":1000,"sim_seconds":0.5}`)

	same := filepath.Join(dir, "same.json")
	write(same, `{"benchmark":"B","procs":4,"pooled_ns_per_op":1000,"sim_seconds":0.5}`)
	if n, errs, err := diffFiles(old, same, false, os.Stdout); err != nil || len(errs) != 0 || n != 4 {
		t.Fatalf("self diff: n=%d errs=%v err=%v", n, errs, err)
	}

	noisy := filepath.Join(dir, "noisy.json")
	write(noisy, `{"benchmark":"B","procs":4,"pooled_ns_per_op":8000,"sim_seconds":0.5}`)
	if _, errs, err := diffFiles(old, noisy, false, os.Stdout); err != nil || len(errs) != 0 {
		t.Fatalf("noisy host time must pass: errs=%v err=%v", errs, err)
	}

	drift := filepath.Join(dir, "drift.json")
	write(drift, `{"benchmark":"B","procs":4,"pooled_ns_per_op":1000,"sim_seconds":0.6}`)
	if _, errs, _ := diffFiles(old, drift, false, os.Stdout); len(errs) != 1 || !strings.Contains(errs[0], "sim_seconds") {
		t.Fatalf("simulated drift not caught: %v", errs)
	}

	missing := filepath.Join(dir, "missing.json")
	write(missing, `{"benchmark":"B","procs":4,"sim_seconds":0.5}`)
	if _, errs, _ := diffFiles(old, missing, false, os.Stdout); len(errs) != 1 || !strings.Contains(errs[0], "missing") {
		t.Fatalf("vanished metric not caught: %v", errs)
	}
}

// Directory mode pairs up the BENCH_*.json names present on both sides.
func TestResolvePairs(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	for _, p := range []string{
		filepath.Join(oldDir, "BENCH_a.json"),
		filepath.Join(oldDir, "BENCH_b.json"),
		filepath.Join(newDir, "BENCH_a.json"),
	} {
		if err := os.WriteFile(p, []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := resolvePairs(oldDir, newDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || filepath.Base(pairs[0][0]) != "BENCH_a.json" {
		t.Fatalf("pairs = %v", pairs)
	}
	if _, err := resolvePairs(oldDir, filepath.Join(newDir, "BENCH_a.json")); err == nil {
		t.Error("dir vs file accepted")
	}
}

// The committed snapshots must diff cleanly against themselves — the
// gate's baseline is always green.
func TestCommittedSnapshotsSelfDiff(t *testing.T) {
	root := "../.."
	names, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(names) == 0 {
		t.Skipf("no committed snapshots found: %v", err)
	}
	for _, name := range names {
		if _, errs, err := diffFiles(name, name, false, os.Stdout); err != nil || len(errs) != 0 {
			t.Errorf("%s vs itself: errs=%v err=%v", filepath.Base(name), errs, err)
		}
	}
}
