package rt

import (
	"fmt"
	"testing"

	"commopt/internal/field"
	"commopt/internal/grid"
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

// ranWorld runs src to completion and returns the world, whose processors
// still hold their fields, with what gather made of it.
func ranWorld(t *testing.T, src string, procs int, vars map[string]float64) (*world, *Result) {
	t.Helper()
	w := classWorld(t, src, procs, vars)
	w.runSched(0, (*proc).run)
	if w.abortErr != nil {
		t.Fatal(w.abortErr)
	}
	return w, w.gather()
}

// TestGatherMatchesOwners holds the run-driven gather to the definition it
// replaced: every point of a gathered array is what its owner's field holds
// there, the owned blocks tile the array's region exactly, and the whole
// array is the one-processor run's. n = 29 divides by no mesh side, so
// blocks come in two lengths; the rank-1 array leaves every processor off
// the first mesh column with an empty block.
func TestGatherMatchesOwners(t *testing.T) {
	sp, err := programs.ByName("sp")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		vars      map[string]float64
	}{
		{"rank1", lineSrc, nil},
		{"rank2", jacobiSrc, map[string]float64{"n": 29}},
		{"rank3", sp.Source, map[string]float64{"n": 29, "nz": 8, "iters": 1}},
	} {
		_, serial := ranWorld(t, c.src, 1, c.vars)
		for _, procs := range []int{1, 4, 16, 64} {
			t.Run(fmt.Sprintf("%s/p%d", c.name, procs), func(t *testing.T) {
				w, res := ranWorld(t, c.src, procs, c.vars)
				for _, a := range w.prog.Arrays {
					d := res.Array(a.Name)
					owned, bad := 0, 0
					for _, p := range w.procs {
						f := p.fields[a.ID]
						if !f.Allocated() {
							continue
						}
						field.ForEach(f.Local, func(i, j, k int) {
							owned++
							if got, want := d.At(i, j, k), f.At(i, j, k); got != want && bad < 5 {
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
			})
		}
	}
}

// TestGatherRefusesStrayBlock: a field whose owned block leaves the array's
// region is a distribution bug, and gather must panic on it, not copy its
// rows over some other part of the dense array.
func TestGatherRefusesStrayBlock(t *testing.T) {
	w := classWorld(t, jacobiSrc, 4, map[string]float64{"n": 8})
	a := w.prog.Arrays[0]
	stray := w.procs[1].fields[a.ID].Local.Shift(grid.Offset{0, 1, 0}) // one column past n
	w.procs[1].fields[a.ID] = field.New(a.Name, stray, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("gather accepted block %v of an array over %v", stray, w.regionVals[a.Region.ID])
		}
	}()
	w.gather()
}
