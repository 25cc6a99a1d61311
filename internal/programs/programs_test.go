package programs_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commopt"
	"commopt/internal/comm"
	"commopt/internal/machine"
	"commopt/internal/programs"
)

// TestSuiteCompiles checks that all four benchmarks parse, lower and plan
// under every optimization level with nonzero communication.
func TestSuiteCompiles(t *testing.T) {
	for _, b := range programs.Suite() {
		prog, err := commopt.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		prev := 1 << 30
		for _, lv := range comm.Levels()[:4] { // the paper's ladder: baseline, rr, cc, pl
			plan := prog.Plan(lv.Opts)
			if plan.StaticCount == 0 {
				t.Fatalf("%s/%s: no transfers", b.Name, lv.Name)
			}
			if plan.StaticCount > prev {
				t.Errorf("%s/%s: static count %d grew from %d", b.Name, lv.Name, plan.StaticCount, prev)
			}
			prev = plan.StaticCount
			t.Logf("%s/%-8s static=%d", b.Name, lv.Name, plan.StaticCount)
		}
		// Max-latency-hiding sits between rr and cc.
		ml := prog.Plan(comm.PLMaxLatency())
		rr := prog.Plan(comm.RR())
		cc := prog.Plan(comm.CC())
		if ml.StaticCount > rr.StaticCount || ml.StaticCount < cc.StaticCount {
			t.Errorf("%s: max-latency static %d outside [cc %d, rr %d]", b.Name, ml.StaticCount, cc.StaticCount, rr.StaticCount)
		}
	}
}

// TestParallelMatchesSerial validates that every benchmark produces the
// same arrays on 16 processors as on 1, under every optimization level and
// both T3D libraries — the runtime moves real data, so any planning or
// exchange bug shows up as a numeric difference.
func TestParallelMatchesSerial(t *testing.T) {
	for _, b := range programs.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := commopt.Compile(b.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			base := prog.Plan(comm.Baseline())
			ref, err := prog.Run(base, commopt.RunOptions{Procs: 1, Configs: b.TestConfig})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			arrays := arrayNames(prog)
			for _, lv := range comm.Levels() {
				plan := prog.Plan(lv.Opts)
				for _, lib := range []string{"pvm", "shmem"} {
					res, err := prog.Run(plan, commopt.RunOptions{Library: lib, Procs: 16, Configs: b.TestConfig})
					if err != nil {
						t.Fatalf("%s/%s: %v", lv.Name, lib, err)
					}
					for _, name := range arrays {
						if d := res.MaxAbsDiff(ref, name); d > 1e-9 || math.IsNaN(d) {
							t.Errorf("%s/%s: array %s differs from serial by %g", lv.Name, lib, name, d)
						}
					}
				}
			}
		})
	}
}

func arrayNames(p *commopt.Program) []string {
	var out []string
	for _, a := range p.IR.Arrays {
		out = append(out, a.Name)
	}
	return out
}

func mustT3DLib(t *testing.T, name string) *machine.Lib {
	t.Helper()
	lib, err := machine.T3D().Lib(name)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// Load reads the named files first, then the benchmark ("all" is the
// suite), and fails on a missing file or an unknown benchmark.
func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.zpl")
	if err := os.WriteFile(path, []byte("program p;"), 0o644); err != nil {
		t.Fatal(err)
	}
	ins, err := programs.Load("all", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, in := range ins {
		names = append(names, in.Name)
	}
	if got, want := strings.Join(names, " "), path+" tomcatv swm simple sp"; got != want {
		t.Errorf("Load(all, %s) names %q, want %q", path, got, want)
	}
	if ins[0].Source != "program p;" || ins[3].Source != programs.Suite()[2].Source {
		t.Error("Load returned the wrong sources")
	}
	if ins, err := programs.Load("", nil); err != nil || len(ins) != 0 {
		t.Errorf("Load with no inputs = %v, %v", ins, err)
	}
	if _, err := programs.Load("nosuch", nil); err == nil {
		t.Error("Load accepted an unknown benchmark")
	}
	if _, err := programs.Load("", []string{filepath.Join(t.TempDir(), "missing.zpl")}); err == nil {
		t.Error("Load accepted a missing file")
	}
}
