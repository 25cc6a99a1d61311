package commopt

import (
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/trace"
)

// This file is the differential harness: one corpus, one comparison and one
// default run per corpus cell, which the suites hold the runtime's mechanisms
// to. The paper's premise is that optimizations — and here, execution
// engines — change what a run costs, never what it computes.

var diffLevels = []struct {
	name string
	opts comm.Options
}{
	{"baseline", comm.Baseline()},
	{"rr", comm.RR()},
	{"cc", comm.CC()},
	{"pl", comm.PL()},
	{"pl-maxlat", comm.PLMaxLatency()},
	{"pl-hoist", comm.Options{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true}},
}

type target struct {
	name string
	prog *Program
	cfg  map[string]float64
}

// evenTargets is how many corpus targets run at their even test size: the
// four suite benchmarks, laplace, sweep_updown and scalar_ops, in that
// order. The rest of the corpus repeats them at an uneven size.
const evenTargets = 7

// corpus compiles the differential targets. Beside the bundled benchmarks
// and laplace, sweep_updown.zpl is in for its non-repeating literal-bound
// sweeps, which the benchmarks' fixed-order wavefronts never produce, and
// scalar_ops.zpl for a scalar on either side of every operator and for
// -0.0, Inf and NaN in the data. Every target runs again at n = 29, a size
// no mesh side of the suites' processor counts divides (29 = 2·14+1 =
// 8·3+5): blocks come in two lengths and processors fall into more shape
// classes (internal/rt/class.go) than corners, edges and interior, while at
// 64 processors classes still have several members sharing compiled kernels
// and schedules.
func corpus(t *testing.T) []target {
	t.Helper()
	var targets []target
	for _, b := range programs.Suite() {
		prog, err := Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		targets = append(targets, target{b.Name, prog, b.TestConfig})
	}
	for _, ex := range []struct {
		name string
		n    float64
	}{{"laplace", 16}, {"sweep_updown", 12}, {"scalar_ops", 12}} {
		src, err := os.ReadFile("examples/zpl/" + ex.name + ".zpl")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(string(src))
		if err != nil {
			t.Fatalf("%s: compile: %v", ex.name, err)
		}
		targets = append(targets, target{ex.name, prog, map[string]float64{"n": ex.n, "iters": 3}})
	}
	for _, tgt := range targets[:evenTargets:evenTargets] {
		cfg := maps.Clone(tgt.cfg)
		cfg["n"] = 29
		targets = append(targets, target{tgt.name + "-uneven", tgt.prog, cfg})
	}
	return targets
}

// pick returns the corpus target of the given name.
func pick(t *testing.T, name string) target {
	t.Helper()
	for _, tgt := range corpus(t) {
		if tgt.name == name {
			return tgt
		}
	}
	t.Fatalf("no corpus target %q", name)
	return target{}
}

func mustRun(t *testing.T, prog *Program, plan *comm.Plan, opts RunOptions) *rt.Result {
	t.Helper()
	res, err := prog.Run(plan, opts)
	if err != nil {
		t.Fatalf("run %+v: %v", opts, err)
	}
	return res
}

// arrayDiffs names the arrays of got that are not bit-identical to want's
// (NaN matching NaN).
func arrayDiffs(got, want *rt.Result) []string {
	var diffs []string
	for _, name := range strings.Fields(want.DumpArrays()) {
		if d := got.MaxAbsDiff(want, name); d != 0 {
			diffs = append(diffs, fmt.Sprintf("array %s: max abs diff %g, want bit-identical", name, d))
		}
	}
	return diffs
}

// sameResult requires two runs of one plan to agree on everything simulated:
// times, counts, output, every processor's breakdown and every array.
func sameResult(t *testing.T, got, want *rt.Result) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"ExecTime", got.ExecTime, want.ExecTime},
		{"DynamicTransfers", got.DynamicTransfers, want.DynamicTransfers},
		{"Messages", got.Messages, want.Messages},
		{"BytesSent", got.BytesSent, want.BytesSent},
		{"Reductions", got.Reductions, want.Reductions},
		{"Output", got.Output, want.Output},
		{"Breakdown", got.Breakdown, want.Breakdown},
	} {
		if f.got != f.want {
			t.Errorf("%s: %+v, want %+v", f.name, f.got, f.want)
		}
	}
	for r := range want.PerProc {
		if got.PerProc[r] != want.PerProc[r] {
			t.Errorf("PerProc[%d]: %+v, want %+v", r, got.PerProc[r], want.PerProc[r])
		}
	}
	for _, d := range arrayDiffs(got, want) {
		t.Error(d)
	}
}

// TestOverlapMatchesSynchronous is the repository's one run with large
// messages: laplace at n=2048 on 4 processors exchanges block edges of 1,023
// doubles, where the corpus's blocks are at most 15 elements wide. Its arrays
// are held to the 1-processor run's — the ground truth TestCommMatchesLegacy
// uses — and everything else simulated to the one-worker run. (Until PR 19
// large sends were packed and delivered beside the sender's coroutine and the
// reference was the synchronous send the name recalls; the test IDs outlive
// it. It stands before the corpus suites so that its 2048² arrays are garbage
// by the time their default runs accumulate.)
func TestOverlapMatchesSynchronous(t *testing.T) {
	lap := pick(t, "laplace")
	cfg := map[string]float64{"n": 2048, "iters": 3}
	for _, lv := range diffLevels {
		if lv.name != "baseline" && lv.name != "pl" {
			continue
		}
		plan := lap.prog.Plan(lv.opts)
		serial := mustRun(t, lap.prog, plan, RunOptions{Procs: 1, Configs: cfg})
		for _, lib := range []string{"pvm", "shmem"} {
			t.Run(lv.name+"/"+lib, func(t *testing.T) {
				opts := RunOptions{Library: lib, Procs: 4, Configs: cfg}
				par := mustRun(t, lap.prog, plan, opts)
				for _, d := range arrayDiffs(par, serial) {
					t.Error(d)
				}
				opts.SchedWorkers = 1
				sameResult(t, mustRun(t, lap.prog, plan, opts), par)
			})
		}
	}
}

// cell is one point of the differential corpus: a target under one plan, on
// one library and processor count.
type cell struct {
	lib    string
	tgt    target
	level  string
	plan   *comm.Plan
	procs  int
	serial *cell      // the same point on one processor
	base   *rt.Result // the default run, made on first use
}

var corpusCells []*cell

// cells lists the corpus, once for all suites: every target at every
// optimization level on both protocols — pvm returns message buffers
// through the mailbox, shmem piggybacks them on rendezvous tokens and parks
// on those — and on 1, 4 and 64 processors.
func cells(t *testing.T) []*cell {
	t.Helper()
	if corpusCells != nil {
		return corpusCells
	}
	for _, lib := range []string{"pvm", "shmem"} {
		for _, tgt := range corpus(t) {
			for _, lv := range diffLevels {
				plan := tgt.prog.Plan(lv.opts)
				var serial *cell
				for _, procs := range []int{1, 4, 64} {
					c := &cell{lib: lib, tgt: tgt, level: lv.name, plan: plan, procs: procs}
					if procs == 1 {
						serial = c
					}
					c.serial = serial
					corpusCells = append(corpusCells, c)
				}
			}
		}
	}
	return corpusCells
}

func (c *cell) opts() RunOptions {
	return RunOptions{Library: c.lib, Procs: c.procs, Configs: c.tgt.cfg}
}

// run returns the cell's default run. The suites run one after another and
// every check compares against it, so it is made once.
func (c *cell) run(t *testing.T) *rt.Result {
	t.Helper()
	if c.base == nil {
		c.base = mustRun(t, c.tgt.prog, c.plan, c.opts())
	}
	return c.base
}

// eachCell runs check on every cell, as the subtest name names. Each suite
// below is one check over the corpus, under the subtest names it has always
// had.
func eachCell(t *testing.T, name func(*cell) string, check func(*testing.T, *cell)) {
	for _, c := range cells(t) {
		t.Run(name(c), func(t *testing.T) { check(t, c) })
	}
}

func libFirst(c *cell) string {
	return fmt.Sprintf("%s/%s/%s/p%d", c.lib, c.tgt.name, c.level, c.procs)
}

// variant checks that the cell's run with set applied to its options is
// indistinguishable from its default run in everything sameResult compares.
func variant(set func(*RunOptions)) func(*testing.T, *cell) {
	return func(t *testing.T, c *cell) {
		o := c.opts()
		set(&o)
		sameResult(t, mustRun(t, c.tgt.prog, c.plan, o), c.run(t))
	}
}

// TestCommMatchesLegacy holds the transport — transfer geometry, pack and
// unpack, mailboxes, buffer recycling — to the paper's ground truth, the
// program run with no communication at all: every array of every cell is
// bit-identical to the 1-processor run's, which shares none of that code with
// what it checks. TestSerialReferenceBites shows this reference can fail.
// (Until PR 17 the reference was the per-rectangle message path the name
// recalls; the test IDs outlive it.)
func TestCommMatchesLegacy(t *testing.T) {
	eachCell(t, libFirst, func(t *testing.T, c *cell) {
		for _, d := range arrayDiffs(c.run(t), c.serial.run(t)) {
			t.Error(d)
		}
	})
}

// TestSchedMatchesGoroutineOracle: virtual times travel in the messages, so
// the order in which host workers step the processors must never reach the
// simulation. The reference is the one-worker run, which steps them one at a
// time. (Until PR 17 it was a goroutine per processor; the test IDs outlive
// it.)
func TestSchedMatchesGoroutineOracle(t *testing.T) {
	eachCell(t, libFirst, variant(func(o *RunOptions) { o.SchedWorkers = 1 }))
}

// TestKernelsMatchInterpreter: compiled kernels against the closure
// interpreter. (The suite once ran on pvm alone; those cells keep the names
// without a library.)
func TestKernelsMatchInterpreter(t *testing.T) {
	eachCell(t, func(c *cell) string {
		name := fmt.Sprintf("%s/%s/p%d", c.tgt.name, c.level, c.procs)
		if c.lib != "pvm" {
			name += "/" + c.lib
		}
		return name
	}, variant(func(o *RunOptions) { o.ForceInterpreter = true }))
}

// TestFusionMatchesUnfused holds rt.Config's promise that no recorder ever
// changes simulated results, on every cell: the run with the event trace
// (rings small enough to wrap), the callsite profile, the metrics registry
// and the critical-path log all on is indistinguishable from the default run,
// and the recorded path sums to the run's execution time. The recorders move
// statements, IRONMAN calls and waits onto their bracketing paths
// (proc.stmt, execCall, waitFor, waitEdge), which no other corpus suite
// runs. (Until PR 19 adjacent statements could run as one fused sweep and
// the reference was every statement on its own, as the name recalls; the
// test IDs outlive it.)
func TestFusionMatchesUnfused(t *testing.T) {
	eachCell(t, func(c *cell) string {
		return fmt.Sprintf("%s/%s/%s/p%d", c.tgt.name, c.level, c.lib, c.procs)
	}, func(t *testing.T, c *cell) {
		cp := critpath.NewRecorder()
		res, err := rt.Run(c.tgt.prog.IR, c.plan, rt.Config{
			Machine: machine.T3D(), Library: c.lib, Procs: c.procs, ConfigVars: c.tgt.cfg,
			Trace: &trace.Recorder{Cap: 64}, Profile: true, Metrics: true, Critpath: cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, res, c.run(t))
		path, err := critpath.Analyze(cp)
		if err != nil {
			t.Fatal(err)
		}
		if total := path.Compute + path.Comm + path.Wait; path.Finish != res.ExecTime || total != res.ExecTime {
			t.Errorf("critical path finishes at %v and sums to %v, want ExecTime %v", path.Finish, total, res.ExecTime)
		}
	})
}

// dropTransfer deletes all four IRONMAN calls of the plan's i'th transfer,
// so no processor ever moves its data.
func dropTransfer(plan *comm.Plan, i int) {
	for _, bp := range plan.Blocks {
		if i >= len(bp.Transfers) {
			i -= len(bp.Transfers)
			continue
		}
		for pos, calls := range bp.Calls {
			kept := calls[:0]
			for _, c := range calls {
				if c.T != bp.Transfers[i] {
					kept = append(kept, c)
				}
			}
			bp.Calls[pos] = kept
		}
		return
	}
}

// TestSerialReferenceBites shows the 1-processor reference can fail: a
// 4-processor run of a plan that lost any one transfer must error or leave
// some array different from the serial run's. That is required of the two
// example programs, on their baseline plans. The other targets only log
// their kill rate, on rr plans (a baseline plan's redundant transfers can be
// dropped unnoticed by construction); simple's is far under 100% because its
// arrays are mostly NaN, which ROADMAP's "benchmarks that compute numbers"
// item owns.
func TestSerialReferenceBites(t *testing.T) {
	for _, tgt := range corpus(t)[:evenTargets] {
		gated := tgt.name == "sweep_updown" || tgt.name == "scalar_ops"
		opts := comm.RR()
		if gated {
			opts = comm.Baseline()
		}
		whole := tgt.prog.Plan(opts)
		serial := mustRun(t, tgt.prog, whole, RunOptions{Procs: 1, Configs: tgt.cfg})
		killed := 0
		for i := range whole.StaticCount {
			plan := tgt.prog.Plan(opts)
			dropTransfer(plan, i)
			res, err := tgt.prog.Run(plan, RunOptions{Procs: 4, Configs: tgt.cfg})
			if err != nil || len(arrayDiffs(res, serial)) > 0 {
				killed++
			} else if gated {
				t.Errorf("%s: the run without transfer %d still matches the serial run", tgt.name, i)
			}
		}
		t.Logf("%s: %d of %d single-transfer deletions caught", tgt.name, killed, whole.StaticCount)
	}
}
