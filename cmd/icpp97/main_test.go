package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"commopt/internal/experiments"
)

func quickRunner() *experiments.Runner {
	r := experiments.NewRunner(64)
	r.Quick = true
	return r
}

// Every -exp key reaches its experiment and renders something, at quick
// sizes on one shared Runner. An experiment that enforces a gate of its own
// (critpath: comm-bound path time shrinks across the pvm ladder) reports
// it through run's error, and rdma renders the same bytes from a second
// Runner. collective and scalinglaw are left to internal/experiments
// (TestCollectiveTable, TestScalingLaw): their default processor lists go
// to 4096 and cost 12 s each.
func TestRunEveryExperiment(t *testing.T) {
	r := quickRunner()
	for _, exp := range expKeys() {
		if exp == "collective" || exp == "scalinglaw" {
			continue
		}
		var out bytes.Buffer
		if err := run(&out, exp, r); err != nil {
			t.Errorf("-exp %s: %v", exp, err)
		}
		if out.Len() == 0 {
			t.Errorf("-exp %s: no output", exp)
		}
	}
	// The ladder's cells are cached on r by now; a fresh Runner has to
	// reach the same bytes.
	var cached, fresh bytes.Buffer
	if err := run(&cached, "rdma", r); err != nil {
		t.Fatal(err)
	}
	if err := run(&fresh, "rdma", quickRunner()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Bytes(), fresh.Bytes()) {
		t.Errorf("-exp rdma: two runners rendered different bytes\n%s--- vs ---\n%s", &cached, &fresh)
	}
	var out bytes.Buffer
	err := run(&out, "x", r)
	if err == nil || err.Error() != `unknown experiment "x"` || out.Len() != 0 {
		t.Errorf(`-exp x: err %v, %d bytes of output; want unknown experiment "x" and none`, err, out.Len())
	}
}

// The committed results files are the product's output at full size: all
// and rdma, rendered on one Runner (the T3D cells are shared), must equal
// results_full.txt and results_rdma.txt byte for byte.
func TestResultsFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size suite")
	}
	r := experiments.NewRunner(64)
	for _, c := range []struct{ exp, file string }{
		{"all", "results_full.txt"},
		{"rdma", "results_rdma.txt"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(&out, c.exp, r); err != nil {
			t.Fatalf("-exp %s: %v", c.exp, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-exp %s differs from %s:\n%s", c.exp, c.file, out.String())
		}
	}
}
