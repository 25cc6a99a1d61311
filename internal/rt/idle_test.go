package rt

import (
	"fmt"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
)

// runWorld is Run keeping the world, whose processors still hold their
// counters, with what gather made of it.
func runWorld(t *testing.T, prog *ir.Program, plan *comm.Plan, cfg Config) (*world, *Result) {
	t.Helper()
	lib, err := cfg.Machine.Lib(cfg.Library)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := grid.MeshFor(cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{prog: prog, plan: plan, mach: cfg.Machine, lib: lib, mesh: mesh}
	if err := w.setup(cfg); err != nil {
		t.Fatal(err)
	}
	w.runSched(cfg.SchedWorkers, (*proc).run)
	if w.abortErr != nil {
		t.Fatal(w.abortErr)
	}
	return w, w.gather()
}

// lookups counts the schedule lookups every processor made: one per DR..SV
// sequence the walk opened. A block run as its idle effect opens none.
func lookups(w *world) (n int64) {
	for _, p := range w.procs {
		for o, c := range p.caches {
			if o != dropped {
				n += c
			}
		}
	}
	return n
}

// TestIdleBlocksMatchTheWalk: a block none of whose literal regions reaches
// a processor is charged as its idle effect, and that must be exactly what
// the full walk does there. Metrics attach an observer, which forces the
// walk; every simulated figure, the output and every array must agree with
// the run that took the idle path. The lookup count shows that it did:
// fewer lookups under pvm on the wavefronts, and never fewer under shmem,
// which synchronizes unconditionally, or in a program without literal
// regions.
func TestIdleBlocksMatchTheWalk(t *testing.T) {
	type idleCase struct {
		name, src string
		vars      map[string]float64
		lib       string
		opts      comm.Options
		procs     int
		idle      bool // the idle path must run
	}
	var cases []idleCase
	for _, name := range []string{"tomcatv", "sp"} {
		b, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{16, 64} {
			for _, o := range []struct {
				level string
				opts  comm.Options
			}{{"baseline", comm.Baseline()}, {"pl", comm.PL()}} {
				cases = append(cases, idleCase{name + "/" + o.level, b.Source, b.TestConfig, "pvm", o.opts, procs, true})
			}
			cases = append(cases, idleCase{name + "/pl", b.Source, b.TestConfig, "shmem", comm.PL(), procs, false})
		}
	}
	cases = append(cases, idleCase{"schedtest/pl", schedTestSrc, nil, "pvm", comm.PL(), 16, false})
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s/p%d", c.name, c.lib, c.procs), func(t *testing.T) {
			prog, _ := compile(t, c.src)
			plan := comm.BuildPlan(prog, c.opts)
			cfg := Config{Machine: machine.T3D(), Library: c.lib, Procs: c.procs, ConfigVars: c.vars}
			wi, idle := runWorld(t, prog, plan, cfg)
			cfg.Metrics = true
			ww, walk := runWorld(t, prog, plan, cfg)

			if idle.ExecTime != walk.ExecTime || idle.DynamicTransfers != walk.DynamicTransfers ||
				idle.Messages != walk.Messages || idle.BytesSent != walk.BytesSent {
				t.Errorf("idle path: time %v, %d transfers, %d msgs, %d B; walk: %v, %d, %d, %d B",
					idle.ExecTime, idle.DynamicTransfers, idle.Messages, idle.BytesSent,
					walk.ExecTime, walk.DynamicTransfers, walk.Messages, walk.BytesSent)
			}
			for r := range idle.PerProc {
				if idle.PerProc[r] != walk.PerProc[r] {
					t.Errorf("PerProc[%d] = %+v, walk %+v", r, idle.PerProc[r], walk.PerProc[r])
				}
			}
			if idle.Output != walk.Output {
				t.Errorf("output %q, walk %q", idle.Output, walk.Output)
			}
			if !sameArrays(idle, walk) {
				t.Error("arrays differ from the walk's")
			}
			if li, lw := lookups(wi), lookups(ww); c.idle && li >= lw {
				t.Errorf("%d schedule lookups, walk %d: the idle path never ran", li, lw)
			} else if !c.idle && li != lw {
				t.Errorf("%d schedule lookups, walk %d: the idle path ran", li, lw)
			}
		})
	}
}
