package rt

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"commopt/internal/grid"
	"commopt/internal/machine"
	"commopt/internal/programs"
)

// lineSrc is a rank-1 program: on a two dimensional mesh only the first
// column of processors owns any of A.
const lineSrc = `
program line;
config var n : integer = 29;
region R = [1..n];
var A : [R] float;
procedure main();
begin
  [R] A := 1.5 * Index1 - 7.0;
end;
`

// ranWorld runs src to completion and returns the world with what gather
// made of it. Gather consumes the fields: what they hold afterwards is
// some array's dense result.
func ranWorld(t *testing.T, src string, procs int, vars map[string]float64) (*world, *Result) {
	t.Helper()
	w := ranUngathered(t, src, procs, vars)
	return w, w.gather()
}

// ranUngathered runs src to completion and returns the world before gather,
// its processors still holding their fields.
func ranUngathered(t *testing.T, src string, procs int, vars map[string]float64) *world {
	t.Helper()
	w := classWorld(t, src, procs, vars)
	w.runSched(0, (*proc).run)
	if w.abortErr != nil {
		t.Fatal(w.abortErr)
	}
	return w
}

// held copies what every processor's fields hold, by ArraySym.ID and rank.
func held(w *world) [][][]float64 {
	out := make([][][]float64, len(w.prog.Arrays))
	for id := range out {
		for _, p := range w.procs {
			out[id] = append(out[id], slices.Clone(p.fields[id].Data()))
		}
	}
	return out
}

// regionsSrc's arrays lie over two regions of different sizes and need no
// ghosts, so each slab is its region's size at any processor count. In
// declaration order A finds no slab the run is done with, C finds A's, B
// finds only C's, too small, and D finds B's.
const regionsSrc = `
program regions;
config var n : integer = 29;
region Small = [1..n, 1..n];
region Big = [0..n+1, 0..n+1];
var A, C : [Small] float;
var B, D : [Big] float;
procedure main();
begin
  [Big] B := Index1 - 2.0 * Index2;
  [Small] A := 3.0 * Index1 + Index2;
  [Small] C := A * A;
  [Big] D := B + 0.5;
end;
`

// TestGatherMatchesOwners holds the run-driven gather to the definition it
// replaced: every point of a gathered array is what its owner's field held
// there before gather consumed the fields, the owned blocks tile the
// array's region exactly, and the whole array is the one-processor run's.
// n = 29 divides by no mesh side, so blocks come in two lengths; the rank-1
// array leaves every processor off the first mesh column with an empty
// block. regionsSrc takes both of gather's paths: a slab the run is done
// with, and new storage.
func TestGatherMatchesOwners(t *testing.T) {
	sp, err := programs.ByName("sp")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		vars      map[string]float64
		into      map[string]string // where each dense result lies (gatheredInto), if set
	}{
		{"rank1", lineSrc, nil, nil},
		{"rank2", jacobiSrc, map[string]float64{"n": 29}, nil},
		{"rank3", sp.Source, map[string]float64{"n": 29, "nz": 8, "iters": 1}, nil},
		{"regions", regionsSrc, nil, map[string]string{"A": "", "C": "A", "B": "", "D": "B"}},
	} {
		_, serial := ranWorld(t, c.src, 1, c.vars)
		for _, procs := range []int{1, 4, 16, 64} {
			t.Run(fmt.Sprintf("%s/p%d", c.name, procs), func(t *testing.T) {
				w := ranUngathered(t, c.src, procs, c.vars)
				before := held(w)
				res := w.gather()
				for _, a := range w.prog.Arrays {
					d := res.Array(a.Name)
					owned, bad := 0, 0
					for _, p := range w.procs {
						f := p.fields[a.ID]
						if !f.Allocated() {
							continue
						}
						forEach(f.Local, func(i, j, k int) {
							owned++
							if got, want := d.At(i, j, k), before[a.ID][p.rank][f.IndexOf(i, j, k)]; got != want && bad < 5 {
								bad++
								t.Errorf("%s(%d,%d,%d) = %g, owner %d holds %g", a.Name, i, j, k, got, p.rank, want)
							}
						})
					}
					if owned != d.Reg.Size() {
						t.Errorf("%s: owned blocks hold %d points, region %v has %d", a.Name, owned, d.Reg, d.Reg.Size())
					}
					if diff := res.MaxAbsDiff(serial, a.Name); diff != 0 {
						t.Errorf("%s: max abs diff %g from the 1-proc run", a.Name, diff)
					}
				}
				if c.into != nil {
					gatheredInto(t, w, res, c.into)
				}
			})
		}
	}
}

// gatheredInto checks where each array's dense result lies: in the slab of
// the array want names, or, for "", in no slab of the run.
func gatheredInto(t *testing.T, w *world, res *Result, want map[string]string) {
	t.Helper()
	for _, a := range w.prog.Arrays {
		d, in := res.Array(a.Name).data, ""
		for _, b := range w.prog.Arrays {
			for i := range w.slabs[b.ID] {
				if &w.slabs[b.ID][i] == &d[0] {
					in = b.Name
				}
			}
		}
		if in != want[a.Name] {
			t.Errorf("%s gathered into the slab of %q, want %q", a.Name, in, want[a.Name])
		}
	}
}

// TestResultsShareNoStorage: a Result's arrays are its own. Overwriting
// every array of a second run of the same world shape leaves the first
// run's as they were.
func TestResultsShareNoStorage(t *testing.T) {
	prog, plan := compile(t, regionsSrc)
	cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: 16}
	first, err := Run(prog, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	for _, a := range prog.Arrays {
		want[a.Name] = slices.Clone(first.Array(a.Name).data)
	}
	second, err := Run(prog, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range prog.Arrays {
		for i := range second.Array(a.Name).data {
			second.Array(a.Name).data[i] = -1
		}
	}
	for _, a := range prog.Arrays {
		if !slices.Equal(first.Array(a.Name).data, want[a.Name]) {
			t.Errorf("%s of the first run changed under the second", a.Name)
		}
	}
}

// TestRunAllocatesOneDenseArray bounds what a run allocates: the slabs its
// fields are carved from, one dense array (the first gathered; every other
// goes into a slab the run is done with) and a slack for everything else
// a run of swm on 4 processors builds, about 0.3 MB. Gathering each of
// swm's 13 arrays into storage of its own would add 12 more dense arrays,
// 512 KB each at n = 256.
func TestRunAllocatesOneDenseArray(t *testing.T) {
	b, err := programs.ByName("swm")
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]float64{"n": 256, "iters": 1}
	prog, plan := compile(t, b.Source)
	w := classWorld(t, b.Source, 4, vars)
	slabs, dense := 0, 0
	for _, p := range w.procs {
		for _, f := range p.fields {
			slabs += 8 * len(f.Data())
		}
	}
	for _, a := range prog.Arrays {
		dense = max(dense, 8*w.regionVals[a.Region.ID].Size())
	}
	const slack = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: vars, SchedWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc - before.TotalAlloc)
	if limit := slabs + dense + slack; got > limit {
		t.Errorf("rt.Run allocated %d bytes; slabs %d + one dense array %d + slack %d = %d",
			got, slabs, dense, slack, limit)
	}
}

// TestGatherRefusesStrayBlock: a field whose owned block leaves the array's
// region is a distribution bug, and gather must panic on it, not copy its
// rows over some other part of the dense array.
func TestGatherRefusesStrayBlock(t *testing.T) {
	w := classWorld(t, jacobiSrc, 4, map[string]float64{"n": 8})
	a := w.prog.Arrays[0]
	stray := w.procs[1].fields[a.ID].Local.Shift(grid.Offset{0, 1, 0}) // one column past n
	w.procs[1].fields[a.ID] = fresh(a.Name, stray, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("gather accepted block %v of an array over %v", stray, w.regionVals[a.Region.ID])
		}
	}()
	w.gather()
}
