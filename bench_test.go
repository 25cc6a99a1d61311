// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark's timed body performs the
// real work that regenerates its artifact (at reduced problem sizes, so
// `go test -bench=.` stays tractable), and reports the paper's headline
// numbers — scaled times and counts from the calibration-size runs — as
// custom metrics. `go run ./cmd/icpp97` regenerates the full-size output.
package commopt

import (
	"sync"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/experiments"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
)

func quickRunner() *experiments.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = experiments.NewRunner(64)
		benchRunner.Quick = true
	})
	return benchRunner
}

// runOnce executes one benchmark program end to end at test size.
func runOnce(b *testing.B, name, expKey string, procs int) {
	b.Helper()
	bench, err := programs.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := experiments.ExperimentByKey(expKey)
	if err != nil {
		b.Fatal(err)
	}
	plan := prog.Plan(exp.Options)
	if _, err := prog.Run(plan, RunOptions{Library: exp.Library, Procs: procs, Configs: bench.TestConfig}); err != nil {
		b.Fatal(err)
	}
}

// reportScaled attaches "<experiment> time as % of baseline" metrics from
// the shared calibration-size runs.
func reportScaled(b *testing.B, bench string, keys ...string) {
	b.Helper()
	r := quickRunner()
	base, err := r.Cell(bench, "baseline")
	if err != nil {
		b.Fatal(err)
	}
	for _, key := range keys {
		c, err := r.Cell(bench, key)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(c.Time)/float64(base.Time), key2metric(key)+"_pct")
	}
}

func key2metric(key string) string {
	switch key {
	case "pl with shmem":
		return "pl_shmem"
	case "pl with max latency":
		return "pl_maxlat"
	}
	return key
}

// BenchmarkFig6Overheads regenerates the exposed-overhead curves of
// Figure 6 (both machines, all five primitives, the full size sweep).
func BenchmarkFig6Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range experiments.Fig6() {
			if len(s.X) == 0 {
				b.Fatal("empty series")
			}
		}
	}
	t3d := machine.T3D()
	b.ReportMetric(programs.SyntheticOverhead(t3d.Libs["pvm"], 8, 1000).Micros(), "pvm_us")
	b.ReportMetric(programs.SyntheticOverhead(t3d.Libs["shmem"], 8, 1000).Micros(), "shmem_us")
	b.ReportMetric(float64(t3d.Libs["pvm"].KneeBytes())/8, "knee_doubles")
}

// BenchmarkFig8Counts regenerates Figure 8's count reductions: the timed
// body runs a full benchmark program under rr (counts need a run for the
// dynamic component).
func BenchmarkFig8Counts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, "tomcatv", "rr", 16)
	}
	r := quickRunner()
	for _, name := range experiments.BenchNames() {
		base, _ := r.Cell(name, "baseline")
		cc, err := r.Cell(name, "cc")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(cc.Dynamic)/float64(base.Dynamic), name+"_cc_dyn_pct")
	}
}

// BenchmarkFig10aPVM regenerates Figure 10(a): optimized execution with
// PVM.
func BenchmarkFig10aPVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, "simple", "pl", 16)
	}
	for _, name := range experiments.BenchNames() {
		r := quickRunner()
		base, _ := r.Cell(name, "baseline")
		pl, err := r.Cell(name, "pl")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(pl.Time)/float64(base.Time), name+"_pl_pct")
	}
}

// BenchmarkFig10bSHMEM regenerates Figure 10(b): fully optimized programs
// using shmem_put.
func BenchmarkFig10bSHMEM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, "simple", "pl with shmem", 16)
	}
	for _, name := range experiments.BenchNames() {
		r := quickRunner()
		base, _ := r.Cell(name, "baseline")
		sh, err := r.Cell(name, "pl with shmem")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(sh.Time)/float64(base.Time), name+"_shmem_pct")
	}
}

// BenchmarkFig11Heuristics regenerates Figure 11: counts under the two
// combining heuristics.
func BenchmarkFig11Heuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, "swm", "pl with max latency", 16)
	}
	r := quickRunner()
	for _, name := range experiments.BenchNames() {
		base, _ := r.Cell(name, "baseline")
		ml, err := r.Cell(name, "pl with max latency")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(ml.Dynamic)/float64(base.Dynamic), name+"_maxlat_dyn_pct")
	}
}

// BenchmarkFig12HeuristicTimes regenerates Figure 12: execution times
// under the two combining heuristics.
func BenchmarkFig12HeuristicTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, "tomcatv", "pl with max latency", 16)
	}
	for _, name := range experiments.BenchNames() {
		reportScaled(b, name, "pl with shmem", "pl with max latency")
	}
}

// BenchmarkTable1Tomcatv .. BenchmarkTable4SP regenerate the appendix
// tables: the timed body is one full run of the benchmark program; the
// metrics are the six experiments' scaled times.
func benchTable(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		runOnce(b, name, "pl", 16)
	}
	reportScaled(b, name, "rr", "cc", "pl", "pl with shmem", "pl with max latency")
	r := quickRunner()
	base, err := r.Cell(name, "baseline")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(base.Static), "static_base")
	b.ReportMetric(float64(base.Dynamic), "dyn_base")
}

func BenchmarkTable1Tomcatv(b *testing.B) { benchTable(b, "tomcatv") }
func BenchmarkTable2SWM(b *testing.B)     { benchTable(b, "swm") }
func BenchmarkTable3Simple(b *testing.B)  { benchTable(b, "simple") }
func BenchmarkTable4SP(b *testing.B)      { benchTable(b, "sp") }

// BenchmarkRunEndToEnd measures a full simulated run of every suite
// program at test size on 16 processors, compile and plan excluded.
func BenchmarkRunEndToEnd(b *testing.B) {
	for _, bench := range programs.Suite() {
		prog, err := Compile(bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		plan := prog.Plan(comm.PL())
		b.Run(bench.Name, func(b *testing.B) {
			opts := RunOptions{Procs: 16, Configs: bench.TestConfig}
			for i := 0; i < b.N; i++ {
				if _, err := prog.Run(plan, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompilerFrontEnd measures parse+lower+plan throughput over the
// whole suite (the compiler side of the system).
func BenchmarkCompilerFrontEnd(b *testing.B) {
	suite := programs.Suite()
	for i := 0; i < b.N; i++ {
		for _, bench := range suite {
			prog, err := Compile(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			plan := prog.Plan(comm.PL())
			if plan.StaticCount == 0 {
				b.Fatal("no transfers")
			}
		}
	}
}

// BenchmarkBuildPlan measures the optimizer alone — the full pass
// pipeline over an already-compiled program, one sub-benchmark per suite
// program — so pipeline overhead (shared analyses, per-pass traces) shows
// up here rather than hiding inside runtime-dominated numbers.
func BenchmarkBuildPlan(b *testing.B) {
	for _, bench := range programs.Suite() {
		prog, err := Compile(bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := prog.Plan(comm.PL())
				if plan.StaticCount == 0 {
					b.Fatal("no transfers")
				}
			}
		})
	}
}

// BenchmarkRuntimeMessaging measures the simulator's own messaging path:
// one iteration of a communication-heavy program on 16 goroutine
// processors.
func BenchmarkRuntimeMessaging(b *testing.B) {
	bench, _ := programs.ByName("sp")
	prog, err := Compile(bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	plan := prog.Plan(comm.Baseline())
	cfg := map[string]float64{"n": 16, "nz": 8, "iters": 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prog.Run(plan, RunOptions{Procs: 16, Configs: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Messages), "messages")
		}
	}
}

// BenchmarkAblationCombineCap sweeps the 512-double knee cap extension:
// how capping combined-transfer size changes SWM's plan (the Section 4
// "machine specific characteristics in the optimizer" direction).
func BenchmarkAblationCombineCap(b *testing.B) {
	bench, _ := programs.ByName("swm")
	prog, err := Compile(bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, capBytes := range []int{0, 4096, 1024, 256} {
			opts := comm.PL()
			opts.CombineLimitBytes = capBytes
			opts.EstimateBytes = estimateSWMBytes
			plan := prog.Plan(opts)
			if plan.StaticCount == 0 {
				b.Fatal("no transfers")
			}
			if capBytes == 256 {
				b.ReportMetric(float64(plan.StaticCount), "static_cap256")
			}
			if capBytes == 0 {
				b.ReportMetric(float64(plan.StaticCount), "static_uncapped")
			}
		}
	}
}

// estimateSWMBytes approximates a transfer item's payload for SWM at the
// paper size: a 64-double block edge (512 x 512 over an 8 x 8 mesh).
func estimateSWMBytes(*ir.ArraySym, grid.Offset) int { return 64 * 8 }

// BenchmarkScalingSweep regenerates the processor-scaling extension
// experiment for SWM and reports the 16-processor speedup.
func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Scaling("swm", []int{1, 4, 16}, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInlining compares plan sizes with and without the
// Section 4 inlining extension across the suite.
func BenchmarkAblationInlining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range programs.Suite() {
			prog, err := Compile(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			plain := prog.Plan(comm.PL()).StaticCount
			inl := prog.Inlined().Plan(comm.PL()).StaticCount
			if inl > plain {
				b.Fatalf("%s: inlining grew the plan", bench.Name)
			}
			if bench.Name == "tomcatv" {
				b.ReportMetric(float64(plain), "tomcatv_static")
				b.ReportMetric(float64(inl), "tomcatv_inlined_static")
			}
		}
	}
}
