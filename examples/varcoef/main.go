// Varcoef: variable-coefficient diffusion, demonstrating the two
// Section 4 extensions implemented beyond the paper — procedure inlining
// before communication analysis, and loop-invariant communication
// hoisting. The conductivity field K is computed once and only read
// afterwards, so its ghost exchanges are identical every time step; with
// hoisting they execute once, before the loop.
package main

import (
	"fmt"
	"log"
	"os"

	"commopt"
	"commopt/internal/comm"
	"commopt/internal/report"
)

const source = `
program varcoef;

config var n     : integer = 96;
config var iters : integer = 30;

region R   = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];

direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];

var T, Tn, K : [R] float;
var tsum : float;

procedure diffuse();
begin
  [Int] begin
    -- K is time-constant: its north/south exchanges are loop invariant
    Tn := T + 0.05 * (K@north + K@south) * (T@east - 2.0 * T + T@west);
    T  := Tn;
  end;
end;

procedure main();
begin
  [R] K := 1.0 + 0.5 * sin(0.2 * Index1) * sin(0.2 * Index2);
  [R] T := Index2;
  for t := 1 to iters do
    diffuse();
  end;
  [Int] tsum := +<< T;
  writeln("tsum = ", tsum);
end;
`

func main() {
	base, err := commopt.Compile(source)
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name string
		prog *commopt.Program
		opts comm.Options
	}
	hoistOpts := comm.PL()
	hoistOpts.HoistInvariant = true
	variants := []variant{
		{"pl (paper)", base, comm.PL()},
		{"pl + inlining", base.Inlined(), comm.PL()},
		{"pl + inlining + hoisting", base.Inlined(), hoistOpts},
	}

	t := &report.Table{
		Title:   "Section 4 extensions on variable-coefficient diffusion (16-node T3D/PVM)",
		Headers: []string{"configuration", "static", "hoisted", "dynamic", "messages", "time (s)"},
	}
	var ref *commopt.Program
	for _, v := range variants {
		plan := v.prog.Plan(v.opts)
		if fs := comm.CheckPlan(plan); len(fs) > 0 {
			log.Fatalf("%s: invalid plan: %v", v.name, fs[0])
		}
		res, err := v.prog.Run(plan, commopt.RunOptions{Procs: 16})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(v.name, plan.StaticCount, plan.HoistedCount(), res.DynamicTransfers,
			res.Messages, fmt.Sprintf("%.6f", res.ExecTime.Seconds()))
		if ref == nil {
			ref = v.prog
			fmt.Print(res.Output)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("K's ghost exchanges run once instead of once per time step; the T")
	fmt.Println("exchanges, whose data changes every step, stay inside the loop.")
}
