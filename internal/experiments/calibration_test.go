package experiments

import (
	"sync"
	"testing"

	"commopt/internal/machine"
	"commopt/internal/programs"
)

// These tests pin the paper's qualitative results (the "shapes"): which
// optimization wins, in which direction each library moves each
// benchmark, and where the machine characterization's features sit. They
// run at the reduced calibration sizes, sharing one cached Runner so each
// benchmark/experiment pair executes exactly once.

var (
	sharedRunner     *Runner
	sharedRunnerOnce sync.Once
)

func runner(t *testing.T) *Runner {
	t.Helper()
	sharedRunnerOnce.Do(func() {
		sharedRunner = NewRunner(64)
		sharedRunner.Quick = true
	})
	return sharedRunner
}

func cells(t *testing.T, r *Runner, bench string) map[string]Cell {
	t.Helper()
	out := map[string]Cell{}
	for _, e := range Experiments() {
		c, err := r.Cell(bench, e.Key)
		if err != nil {
			t.Fatalf("%s/%s: %v", bench, e.Key, err)
		}
		out[e.Key] = c
	}
	return out
}

// TestCountsMonotone: Figure 8 — each optimization only removes
// communication, statically and dynamically, and combining accounts for
// the larger share of the dynamic reduction.
func TestCountsMonotone(t *testing.T) {
	r := runner(t)
	for _, name := range BenchNames() {
		c := cells(t, r, name)
		if !(c["baseline"].Static >= c["rr"].Static && c["rr"].Static >= c["cc"].Static) {
			t.Errorf("%s: static counts not monotone: %d %d %d", name, c["baseline"].Static, c["rr"].Static, c["cc"].Static)
		}
		if !(c["baseline"].Dynamic >= c["rr"].Dynamic && c["rr"].Dynamic >= c["cc"].Dynamic) {
			t.Errorf("%s: dynamic counts not monotone: %d %d %d", name, c["baseline"].Dynamic, c["rr"].Dynamic, c["cc"].Dynamic)
		}
		if c["pl"].Static != c["cc"].Static || c["pl"].Dynamic != c["cc"].Dynamic {
			t.Errorf("%s: pipelining changed counts", name)
		}
		// Combining removes more dynamic communication than redundancy
		// removal alone (the paper's Figure 8 observation).
		rrSaved := c["baseline"].Dynamic - c["rr"].Dynamic
		ccSaved := c["rr"].Dynamic - c["cc"].Dynamic
		if ccSaved <= rrSaved/4 {
			t.Errorf("%s: cc dynamic saving %d implausibly small vs rr %d", name, ccSaved, rrSaved)
		}
	}
}

// TestTimesMonotone: Figure 10(a) — with PVM, every added optimization is
// at least as fast (small tolerance for simulation noise).
func TestTimesMonotone(t *testing.T) {
	r := runner(t)
	for _, name := range BenchNames() {
		c := cells(t, r, name)
		seq := []string{"baseline", "rr", "cc", "pl"}
		for i := 1; i < len(seq); i++ {
			prev, cur := c[seq[i-1]].Time, c[seq[i]].Time
			if float64(cur) > float64(prev)*1.02 {
				t.Errorf("%s: %s (%v) slower than %s (%v)", name, seq[i], cur, seq[i-1], prev)
			}
		}
	}
}

// TestSHMEMDirections: Figure 10(b) — SHMEM improves SWM and SIMPLE and
// degrades TOMCATV and SP (the serialized benchmarks).
func TestSHMEMDirections(t *testing.T) {
	r := runner(t)
	for _, b := range programs.Suite() {
		c := cells(t, r, b.Name)
		pl, sh := c["pl"].Time, c["pl with shmem"].Time
		if b.Serialized {
			if sh <= pl {
				t.Errorf("%s (serialized): shmem %v not slower than pvm %v", b.Name, sh, pl)
			}
		} else {
			if sh >= pl {
				t.Errorf("%s: shmem %v not faster than pvm %v", b.Name, sh, pl)
			}
		}
	}
}

// TestCombiningHeuristics: Figures 11 and 12 — maximize-latency-hiding
// keeps more transfers than maximize-combining (counts between cc and
// rr), and always loses at run time.
func TestCombiningHeuristics(t *testing.T) {
	r := runner(t)
	for _, name := range BenchNames() {
		c := cells(t, r, name)
		ml := c["pl with max latency"]
		if ml.Static < c["cc"].Static || ml.Static > c["rr"].Static {
			t.Errorf("%s: max-latency static %d outside [%d, %d]", name, ml.Static, c["cc"].Static, c["rr"].Static)
		}
		if ml.Dynamic < c["cc"].Dynamic || ml.Dynamic > c["rr"].Dynamic {
			t.Errorf("%s: max-latency dynamic %d outside [%d, %d]", name, ml.Dynamic, c["cc"].Dynamic, c["rr"].Dynamic)
		}
		if ml.Time <= c["pl with shmem"].Time {
			t.Errorf("%s: max-latency (%v) beat max-combining (%v)", name, ml.Time, c["pl with shmem"].Time)
		}
	}
}

// TestTomcatvMaxLatencyMatchesRR: the paper's Figure 11 observation that
// under maximize-latency-hiding TOMCATV's counts fall back to the
// rr level (its combinable transfers never share windows).
func TestTomcatvMaxLatencyMatchesRR(t *testing.T) {
	r := runner(t)
	c := cells(t, r, "tomcatv")
	ml, rr := c["pl with max latency"], c["rr"]
	if float64(ml.Dynamic) < 0.75*float64(rr.Dynamic) {
		t.Errorf("tomcatv max-latency dynamic %d far below rr %d; paper has them nearly equal", ml.Dynamic, rr.Dynamic)
	}
}

// TestSyntheticCurves: Figure 6 — the knee sits near 512 doubles, SHMEM
// runs ~10% below PVM at small sizes, and the Paragon's asynchronous
// primitives do not beat csend/crecv.
func TestSyntheticCurves(t *testing.T) {
	t3d := machine.T3D()
	pvm1 := programs.SyntheticOverhead(t3d.Libs["pvm"], 1, 1000)
	shm1 := programs.SyntheticOverhead(t3d.Libs["shmem"], 1, 1000)
	ratio := float64(shm1) / float64(pvm1)
	if ratio < 0.85 || ratio > 0.95 {
		t.Errorf("shmem/pvm at 1 double = %.3f, want ~0.90", ratio)
	}
	// Knee: at 512 doubles the overhead has roughly doubled; well below
	// (64 doubles) it is still near-flat.
	pvm512 := programs.SyntheticOverhead(t3d.Libs["pvm"], 512, 1000)
	pvm64 := programs.SyntheticOverhead(t3d.Libs["pvm"], 64, 1000)
	if f := float64(pvm512) / float64(pvm1); f < 1.6 || f > 2.6 {
		t.Errorf("pvm overhead at 512 doubles = %.2fx the 1-double overhead, want ~2x (knee)", f)
	}
	if f := float64(pvm64) / float64(pvm1); f > 1.25 {
		t.Errorf("pvm overhead at 64 doubles = %.2fx, want near-flat", f)
	}

	par := machine.Paragon()
	cs := programs.SyntheticOverhead(par.Libs["csend"], 8, 1000)
	is := programs.SyntheticOverhead(par.Libs["isend"], 8, 1000)
	hs := programs.SyntheticOverhead(par.Libs["hsend"], 8, 1000)
	if is < cs {
		t.Errorf("isend (%v) beat csend (%v)", is, cs)
	}
	if hs <= cs {
		t.Errorf("hsend (%v) not worse than csend (%v)", hs, cs)
	}
}

// TestAppendixTablesRender: Tables 1-4 build without error and agree with
// the cached cells.
func TestAppendixTablesRender(t *testing.T) {
	r := runner(t)
	for _, name := range BenchNames() {
		tbl, err := results(r, "Results", name, Experiments(), "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) != 6 {
			t.Errorf("%s: %d rows, want 6 experiments", name, len(tbl.Rows))
		}
	}
}

func TestExperimentKeyed(t *testing.T) {
	if _, err := ExperimentByKey("pl"); err != nil {
		t.Fatal(err)
	}
	if _, err := ExperimentByKey("nothing"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Experiments()) != 6 {
		t.Fatalf("experiments = %d, want 6 (Figure 9)", len(Experiments()))
	}
}
