package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/critpath"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/rt"
	"commopt/internal/trace"
	"commopt/internal/zpl"
)

const (
	frontEndCalls = 15 // calls per front-end function; the median is reported
	probeRuns     = 3  // runs per differential point; the median is reported
)

// untraced carries what the timed repetitions measured into the traced
// run: medians per repetition with all observability off.
type untraced struct {
	wall, cpu, slowdown float64 // normalised seconds; the host's slowdown
	mallocs, gcs        float64
}

// timedRuns executes a spec probeRuns times, each inside an rt.Run span,
// and returns the median wall and CPU seconds, over the host's slowdown
// as the yardstick saw it right after the runs, and the last result.
func timedRuns(l *lab, tr *tracer, s runSpec, tune func(*rt.Config)) (wall, cpu float64, res *rt.Result, err error) {
	var walls, cpus []float64
	var all repCost
	for i := 0; i < probeRuns; i++ {
		var m meter
		id := tr.begin("rt.Run", s.label())
		m.measure(func() { res, err = l.run(s, tune) })
		tr.end(id)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s: %w", s.label(), err)
		}
		walls = append(walls, m.wall.Seconds())
		cpus = append(cpus, m.cpu.Seconds())
		all.wall += m.wall
	}
	slowWall, slowCPU := l.followed(tr, all).yard.slowdown()
	return median(walls) / slowWall, median(cpus) / slowCPU, res, nil
}

// tracedRun makes the traced repetition of a workload and the per-layer
// measurements around it, all from outside: spans around calls into
// public functions, the runs' own counters, and differentials on the
// workload's probe run (iterations 0, 1 and N; each recorder on and off;
// with and without the reduction). It returns every per-layer metric.
func tracedRun(name string, w workload, c *checker, base untraced) (map[string]stat, *tracer, error) {
	tr := newTracer(name)
	out := map[string]stat{}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				out[name] = newStat(d.Unit, v)
				return
			}
		}
		panic("bench: unknown per-layer metric " + name)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	root := tr.begin("bench.traced_run", "")
	err := func() error {
		probe, l := w.probe(), w.lab()

		// Front end: the probe's program through every pre-run layer.
		staticCount, err := frontEnd(tr, probe)
		if err != nil {
			return err
		}
		for metric, span := range map[string]string{
			"zpl.parse_us": "zpl.Parse", "ir.lower_us": "ir.Lower", "comm.plan_us": "comm.BuildPlan",
			"cost.predict_us": "cost.Predict", "collective.resolve_us": "collective.Resolve",
		} {
			s := newStat("us", tr.durations(span)...)
			s.Samples = nil
			out[metric] = s
		}
		set("comm.static_count", float64(staticCount))

		// The traced repetition: a span per call, the runs' counters on.
		h := &harvest{}
		var rep repCost
		tr.rep = 1
		tr.in("bench.repetition", "", func() { rep = w.rep(c, tr, h) })
		rep = l.followed(tr, rep)
		tr.rep = 0
		tracedWall, _ := rep.seconds()
		set("bench.trace_overhead_ratio", ratio(tracedWall, base.wall))
		set("bench.host_slowdown", base.slowdown)
		set("cost.exact_ratio", ratio(float64(h.exact), float64(h.predictions)))
		set("rt.ironman_calls", float64(h.calls))
		set("rt.messages", float64(h.messages))
		set("rt.bytes_sent", float64(h.bytes))
		set("rt.stmts_kernel", float64(h.stmtsKernel))
		set("rt.stmts_fused", float64(h.stmtsFused))
		set("rt.async_sends", float64(h.asyncSends))
		set("rt.sched_steps", float64(h.steps))
		set("rt.sched_parks", float64(h.parks))
		set("rt.parks_per_msg", ratio(float64(h.parks), float64(h.messages)))
		set("rt.runq_hiwater", float64(h.runqHi))
		set("rt.mbox_hiwater", float64(h.mboxHi))
		set("rt.cpu_ns_per_call", ratio(base.cpu*1e9, float64(h.calls)))
		set("rt.cpu_ns_per_msg", ratio(base.cpu*1e9, float64(h.messages)))
		set("rt.cpu_us_per_stmt", ratio(base.cpu*1e6, float64(h.stmts)))
		set("rt.mallocs", base.mallocs)
		set("rt.gc_cycles", base.gcs)
		set("rt.sim_s", rep.sim.Seconds())

		// Differentials on the probe: world set-up, first iteration, steady state.
		iters := probe.vars["iters"]
		wall0, _, _, err := timedRuns(l, tr, probe.with("iters", 0), nil)
		if err != nil {
			return err
		}
		wall1, _, _, err := timedRuns(l, tr, probe.with("iters", 1), nil)
		if err != nil {
			return err
		}
		wallN, cpuN, resN, err := timedRuns(l, tr, probe, nil)
		if err != nil {
			return err
		}
		set("rt.world_s", wall0)
		set("rt.first_iter_s", wall1-wall0)
		set("rt.steady_iter_ms", ratio((wallN-wall1)*1e3, iters-1))

		// Each recorder on, against the same run with everything off.
		var rec *trace.Recorder
		wallTrace, _, _, err := timedRuns(l, tr, probe, func(cfg *rt.Config) {
			rec = trace.NewRecorder()
			cfg.Trace = rec
		})
		if err != nil {
			return err
		}
		events := 0
		for r := 0; r < rec.Procs(); r++ {
			events += rec.Buffer(r).Len()
		}
		t0 := time.Now()
		tr.in("trace.WriteChrome", "", func() { err = trace.WriteChrome(io.Discard, rec) })
		if err != nil {
			return err
		}
		set("trace.write_ms", time.Since(t0).Seconds()*1e3)
		set("trace.events", float64(events))
		set("trace.overhead_ratio", ratio(wallTrace, wallN))

		var crit *critpath.Recorder
		wallCrit, _, _, err := timedRuns(l, tr, probe, func(cfg *rt.Config) {
			crit = critpath.NewRecorder()
			cfg.Critpath = crit
		})
		if err != nil {
			return err
		}
		var path *critpath.Path
		t0 = time.Now()
		tr.in("critpath.Analyze", "", func() { path, err = critpath.Analyze(crit) })
		if err != nil {
			return err
		}
		set("critpath.analyze_ms", time.Since(t0).Seconds()*1e3)
		set("critpath.overhead_ratio", ratio(wallCrit, wallN))
		set("rt.sim_comm_share", ratio(float64(path.Comm+path.Wait), float64(path.Finish)))

		wallMetrics, _, _, err := timedRuns(l, tr, probe, func(cfg *rt.Config) { cfg.Metrics = true })
		if err != nil {
			return err
		}
		set("metrics.overhead_ratio", ratio(wallMetrics, wallN))

		// One allreduce per iteration: the probe against its twin without.
		set("collective.msgs_per_reduction", 0)
		set("collective.cpu_us_per_reduction", 0)
		if probe.prog == "jacobi_reduce" {
			twin := probe
			twin.prog = "jacobi"
			_, cpuTwin, resTwin, err := timedRuns(l, tr, twin, nil)
			if err != nil {
				return err
			}
			n := float64(resN.Reductions)
			set("collective.msgs_per_reduction", ratio(float64(resN.Messages-resTwin.Messages), n))
			set("collective.cpu_us_per_reduction", ratio((cpuN-cpuTwin)*1e6, n))
		}

		// The sweep's own layer.
		for _, m := range []string{"experiments.cells", "experiments.cpu_s_per_cell", "experiments.parallelism", "experiments.render_ms"} {
			set(m, 0)
		}
		if sw, ok := w.(*sweep); ok {
			render, err := sw.warmRender(tr)
			if err != nil {
				return err
			}
			set("experiments.cells", float64(len(sw.cells)))
			set("experiments.cpu_s_per_cell", ratio(base.cpu, float64(len(sw.cells))))
			set("experiments.parallelism", ratio(base.cpu, base.wall))
			set("experiments.render_ms", render.Seconds()*1e3)
		}
		return nil
	}()
	tr.end(root)
	tr.finish()
	if err != nil {
		return nil, tr, err
	}
	ledgerErr := ledgerBalances(tr)
	c.check(ledgerErr == nil, "%s: span ledger: %v", name, ledgerErr)
	return out, tr, nil
}

// frontEnd takes the probe's program through every layer that runs before
// rt.Run, frontEndCalls times each with a span per call, and returns the
// static communication count of the probe's plan.
func frontEnd(tr *tracer, probe runSpec) (int, error) {
	src, err := source(probe.prog)
	if err != nil {
		return 0, err
	}
	lib, err := machine.T3D().Lib(probe.lib)
	if err != nil {
		return 0, err
	}
	mesh, err := grid.MeshFor(probe.procs)
	if err != nil {
		return 0, err
	}
	var plan *comm.Plan
	for i := 0; i < frontEndCalls; i++ {
		var ast *zpl.Program
		var low *ir.Program
		tr.in("zpl.Parse", probe.prog, func() { ast, err = zpl.Parse(src) })
		if err != nil {
			return 0, err
		}
		tr.in("ir.Lower", probe.prog, func() { low, err = ir.Lower(ast) })
		if err != nil {
			return 0, err
		}
		tr.in("comm.BuildPlan", probe.opts.String(), func() { plan = comm.BuildPlan(low, probe.opts) })
		tr.in("cost.Predict", probe.label(), func() { _, err = cost.Predict(low, plan, probe.costConfig()) })
		if err != nil {
			return 0, err
		}
		tr.in("collective.Resolve", probe.lib, func() { _, err = collective.Resolve(collective.Auto, lib, mesh) })
		if err != nil {
			return 0, err
		}
	}
	return plan.StaticCount, nil
}

// ledgerBalances checks the span ledger: every span but the root has an
// earlier span as parent and lies inside it, and the self times sum to
// the root span within 1%.
func ledgerBalances(tr *tracer) error {
	if len(tr.spans) == 0 {
		return fmt.Errorf("no spans")
	}
	var self float64
	for _, s := range tr.spans {
		self += s.SelfUS
		if s.ID == 0 {
			if s.Parent != -1 {
				return fmt.Errorf("root span has parent %d", s.Parent)
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		if p := tr.spans[s.Parent]; s.StartUS < p.StartUS || s.EndUS > p.EndUS {
			return fmt.Errorf("span %d (%s) leaves its parent %d", s.ID, s.Name, s.Parent)
		}
	}
	if root := tr.spans[0].durUS(); math.Abs(self-root) > 0.01*root {
		return fmt.Errorf("self times sum to %.0f us, root span is %.0f us", self, root)
	}
	return nil
}
