package rt

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/vtime"
)

// jacobiSrc is bench/workloads/jacobi.zpl: every region declared, one
// four-point stencil, so its compilations depend on block shape alone.
const jacobiSrc = `program jacobi;
config var n : integer = 64;
config var iters : integer = 3;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];
var U, V : [R] float;
procedure main();
begin
  [R] U := Index1 + Index2;
  [R] V := U;
  for t := 1 to iters do
    [Int] begin
      V := 0.25 * (U@east + U@west + U@north + U@south);
      U := V;
    end;
  end;
end;
`

// noCommSrc has no shifted reference, so its arrays need no ghost cells and
// a mesh side may exceed the problem's: some blocks are empty.
const noCommSrc = `program nocomm;
config var n : integer = 7;
region R = [1..n, 1..n];
var A, B : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 * 10 + Index2;
  [R] B := A + A;
  [R] s := +<< B;
  writeln("s = ", s);
end;
`

// classWorld sets a world up, unrun, to inspect its classes.
func classWorld(t *testing.T, src string, procs int, vars map[string]float64) *world {
	t.Helper()
	prog, plan := compile(t, src)
	mach := machine.T3D()
	lib, err := mach.Lib("pvm")
	if err != nil {
		t.Fatal(err)
	}
	w := &world{prog: prog, plan: plan, mach: mach, lib: lib, mesh: grid.SquarestMesh(procs)}
	if err := w.setup(Config{ConfigVars: vars}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestShapeClassPartition: an evenly divided mesh falls into corners, edges
// and interior; an uneven one into a class per combination of block length
// and position, whose members still have congruent fields — the property
// every shared kernel and schedule rests on.
func TestShapeClassPartition(t *testing.T) {
	even := classWorld(t, jacobiSrc, 64, map[string]float64{"n": 64})
	if n := len(even.classes); n != 9 {
		t.Errorf("n=64 on 8x8: %d shape classes, want 9 (4 corners, 4 edges, interior)", n)
	}
	if n := len(even.nbhds); n > 25 {
		t.Errorf("n=64 on 8x8: %d neighbourhood classes, want at most 25", n)
	}
	for _, c := range []struct {
		name    string
		w       *world
		classes int // (first, inner and last block) x (each block length), squared
		empty   bool
	}{
		{"n=30 on 4x4 (blocks of 8, 8, 7, 7)", classWorld(t, jacobiSrc, 16, map[string]float64{"n": 30}), 16, false},
		{"n=59 on 8x8 (three blocks of 8, five of 7)", classWorld(t, jacobiSrc, 64, map[string]float64{"n": 59}), 16, false},
		{"n=7 on 8x8 (the last block row and column empty)", classWorld(t, noCommSrc, 64, nil), 9, true},
	} {
		w := c.w
		if len(w.classes) != c.classes {
			t.Errorf("%s: %d shape classes, want %d", c.name, len(w.classes), c.classes)
		}
		sawEmpty := false
		for _, p := range w.procs {
			for id, f := range p.fields {
				rep := p.cls.fields[id]
				if p.rel(f.Local) != p.cls.locals[id] || len(f.Data()) != len(rep.Data()) ||
					f.Stride(0) != rep.Stride(0) || f.Stride(1) != rep.Stride(1) {
					t.Fatalf("%s: processor %d's field %s is not congruent with its class's", c.name, p.rank, f.Name)
				}
				// A flat offset means the same element on both: the block
				// origin sits at the same index.
				if o, r := p.kctx.org, p.cls.org; f.Allocated() && f.IndexOf(o[0], o[1], 1) != rep.IndexOf(r[0], r[1], 1) {
					t.Fatalf("%s: processor %d's field %s puts its origin elsewhere than its class's", c.name, p.rank, f.Name)
				}
				sawEmpty = sawEmpty || !f.Allocated()
			}
		}
		if sawEmpty != c.empty {
			t.Errorf("%s: empty blocks seen = %v, want %v", c.name, sawEmpty, c.empty)
		}
	}
	// Processors without a block still run: the result is the serial one.
	serial := run(t, noCommSrc, 1, "pvm", nil)
	if par := run(t, noCommSrc, 64, "pvm", nil); par.Output != serial.Output || !sameArrays(par, serial) {
		t.Errorf("n=7 on 8x8: output %q, serial %q, or arrays differ", par.Output, serial.Output)
	}
}

// sameArrays reports whether two results hold bit-identical arrays.
func sameArrays(a, b *Result) bool {
	if len(a.arrays) != len(b.arrays) {
		return false
	}
	for name, da := range a.arrays {
		db := b.arrays[name]
		if db == nil || da.Reg != db.Reg {
			return false
		}
		for i, v := range da.data {
			if math.Float64bits(v) != math.Float64bits(db.data[i]) {
				return false
			}
		}
	}
	return true
}

// TestCompilesIndependentOfProcs: at equal block size a 32x32 mesh has the
// classes of an 8x8 one, so 16 times the processors compile nothing more.
func TestCompilesIndependentOfProcs(t *testing.T) {
	prog, plan := compile(t, jacobiSrc)
	compiles := func(procs int, n float64) (total int64) {
		res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "shmem", Procs: procs,
			ConfigVars: map[string]float64{"n": n}, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"kernel_compiles", "sched_cache_compiles"} {
			n := res.Metrics.Counter(name).N
			t.Logf("%d procs: %s = %d", procs, name, n)
			total += n
		}
		if got := res.Metrics.Gauge("shape_classes").V; got != 9 {
			t.Errorf("%d procs: shape_classes = %d, want 9", procs, got)
		}
		return total
	}
	small, large := compiles(64, 64), compiles(1024, 256)
	if small == 0 || small != large {
		t.Errorf("compilations: %d on 8x8, %d on 32x32 at the same 8x8 block; want equal and non-zero", small, large)
	}
}

// TestSharedKernelsAreRaceFree runs tomcatv (literal-bound sweeps, reduction
// kernels over an intrinsic) and swm (the deepest expression trees) on 64
// processors stepped by one worker, where nothing is concurrent, and by
// several, so class-mates execute the same compiled rows and schedules
// concurrently. Arrays must match internal/ref's bit for bit either way, and
// the time the one-worker run's; the race detector (CI's go test -race)
// checks that the sharing itself is sound.
func TestSharedKernelsAreRaceFree(t *testing.T) {
	for _, name := range []string{"tomcatv", "swm"} {
		bench, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, plan := compile(t, bench.Source)
		want := refRun(t, bench.Source, bench.TestConfig)
		cfg := Config{Machine: machine.T3D(), Library: "shmem", Procs: 64, ConfigVars: bench.TestConfig, Metrics: true}
		var oneWorker vtime.Duration
		for _, workers := range []int{1, 4} {
			c := cfg
			c.SchedWorkers = workers
			got, err := Run(prog, plan, c)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for _, d := range refDiffs(got, want) {
				t.Errorf("%s workers=%d: %s", name, workers, d)
			}
			if workers == 1 {
				oneWorker = got.ExecTime
			} else if got.ExecTime != oneWorker {
				t.Errorf("%s workers=%d: time %v, the one-worker run's %v", name, workers, got.ExecTime, oneWorker)
			}
			// One kernel per (statement, class) serves 64 processors.
			compiles, classes, ran := got.Metrics.Counter("kernel_compiles").N, got.Metrics.Gauge("shape_classes").V, got.Metrics.Counter("stmts_kernel").N
			if ran == 0 || classes >= 64 || compiles != classes*int64(prog.NumArrayStmts+prog.NumReduces) {
				t.Errorf("%s workers=%d: %d kernel compiles for %d classes and %d kernel statements, want one per (statement, class) and fewer classes than processors", name, workers, compiles, classes, ran)
			}
		}
	}
}

// TestClassReachResolvesAlike runs the four benchmarks on 4, 16 and 64
// processors under pvm and shmem twice, on one worker: once as setup builds
// the world, and once as a reference with every reach widened to its
// neighbourhood frame, the clip a literal region had before reaches. For
// every (transfer, neighbourhood class, key) the reference meets:
//   - carries is false exactly when every pair geometry compiles moves 0
//     bytes (declared regions included);
//   - geometry over the key clipped to the reach compiles the same runs as
//     over the key itself, and carries agrees on both.
//
// The two runs must take the same time and move the same messages, and each
// processor's slots must hold exactly the reference keys' clips to the reach
// that are not empty.
func TestClassReachResolvesAlike(t *testing.T) {
	type met struct {
		slot, nc int
		key      grid.Region
	}
	for _, name := range []string{"tomcatv", "swm", "simple", "sp"} {
		bench, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, plan := compile(t, bench.Source)
		var literal, declared []*comm.Transfer
		for _, bp := range plan.Blocks {
			for _, tr := range bp.Transfers {
				if tr.Region.Sym == nil {
					literal = append(literal, tr)
				} else {
					declared = append(declared, tr)
				}
			}
		}
		for _, procs := range []int{4, 16, 64} {
			for _, lib := range []string{"pvm", "shmem"} {
				// run returns the world after its processors' bodies, their
				// slots kept, and the reaches setup built, by class id.
				run := func(widen bool) (*world, [][]frame) {
					mach := machine.T3D()
					l, err := mach.Lib(lib)
					if err != nil {
						t.Fatal(err)
					}
					w := &world{prog: prog, plan: plan, mach: mach, lib: l, mesh: grid.SquarestMesh(procs)}
					if err := w.setup(Config{ConfigVars: bench.TestConfig}); err != nil {
						t.Fatal(err)
					}
					reach := make([][]frame, len(w.nbhds))
					for _, nc := range w.nbhds {
						reach[nc.id] = slices.Clone(nc.reach)
						for id := range nc.reach {
							if widen { // the reference: the neighbourhood clip
								nc.reach[id] = nc.frame
							}
						}
					}
					w.runSched(1, (*proc).exec)
					if w.abortErr != nil {
						t.Errorf("%s/%d/%s: %v", name, procs, lib, w.abortErr)
					}
					return w, reach
				}
				got, _ := run(false)
				ref, reach := run(true)
				seen := map[met]bool{}
				check := func(tr *comm.Transfer, nc *nbhdClass, key, clipped grid.Region) {
					m := met{tr.Slot, int(nc.id), key}
					if seen[m] {
						return
					}
					seen[m] = true
					sc, moves := nc.geometry(tr, key), false
					for _, pr := range append(slices.Clone(sc.recvs), sc.sends...) {
						moves = moves || pr.bytes > 0
					}
					if c := nc.carries(tr, key); c != moves {
						t.Errorf("%s/%d/%s: %s on class %d over %v: carries %v, geometry moves data %v", name, procs, lib, tr.Label(), nc.id, key, c, moves)
					}
					if nc.carries(tr, clipped) != moves || !reflect.DeepEqual(nc.geometry(tr, clipped), sc) {
						t.Errorf("%s/%d/%s: %s on class %d: %v clipped to the reach, %v, resolves otherwise", name, procs, lib, tr.Label(), nc.id, key, clipped)
					}
				}
				for rank, p := range ref.procs {
					q := got.procs[rank]
					if p.clock != q.clock || p.messages != q.messages || p.bytesSent != q.bytesSent {
						t.Errorf("%s/%d/%s: processor %d: %v, %d messages, %d bytes; the reference's %v, %d, %d", name, procs, lib, rank, q.clock, q.messages, q.bytesSent, p.clock, p.messages, p.bytesSent)
					}
					nc := p.ncls
					for _, tr := range declared {
						key := nc.clip(p.rel(ref.regionVals[tr.Region.Sym.ID]))
						check(tr, nc, key, key)
					}
					for id, s := range p.regions {
						var want []grid.Region
						for _, key := range s.keys[min(len(s.keys), 1):] {
							clipped := reach[nc.id][id].clip(key)
							if !clipped.Empty() && !slices.Contains(want, clipped) {
								want = append(want, clipped)
							}
							for _, tr := range literal {
								if tr.Region.Slot == id {
									check(tr, nc, key, clipped)
								}
							}
						}
						// Both lists are free of repeats: equal lengths and
						// containment make them one set.
						have := q.regions[id].keys[min(len(q.regions[id].keys), 1):]
						if len(have) != len(want) || slices.ContainsFunc(want, func(r grid.Region) bool { return !slices.Contains(have, r) }) {
							t.Errorf("%s/%d/%s: processor %d slot %d holds %v, want the reach clips %v", name, procs, lib, rank, id, have, want)
						}
					}
				}
				if len(seen) == 0 {
					t.Errorf("%s/%d/%s: no (transfer, class, key) met", name, procs, lib)
				}
			}
		}
	}
}
