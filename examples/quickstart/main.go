// Quickstart: compile a small ZPL stencil program, optimize its
// communication, run it on the simulated Cray T3D, and inspect the
// results — the five-minute tour of the library.
package main

import (
	"fmt"
	"log"

	"commopt"
	"commopt/internal/comm"
)

const source = `
program quickstart;

config var n     : integer = 64;
config var iters : integer = 10;

region R   = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];

direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];

var A, B, C, D : [R] float;
var err : float;

procedure main();
begin
  [R] A := Index1 + 0.5 * Index2;
  [R] D := 0.1 * Index2;
  for t := 1 to iters do
    [Int] begin
      -- each shifted reference implies nearest-neighbor communication on
      -- the processor mesh; the optimizer removes the redundant A@east /
      -- A@west reads, combines the A and D transfers that share offsets,
      -- and pipelines the sends above the statements that consume them
      B := 0.25 * (A@east + A@west + A@north + A@south);
      C := 0.5 * (D@east + D@west) + 0.125 * (A@east - A@west);
      A := A + 0.5 * (B - A) + 0.01 * C;
      D := 0.99 * D + 0.01 * B;
    end;
  end;
  [Int] err := max<< abs(B - A);
  writeln("residual = ", err);
end;
`

func main() {
	prog, err := commopt.Compile(source)
	if err != nil {
		log.Fatal(err)
	}

	// Plan communication at each optimization level and compare.
	fmt.Println("optimization level -> static communications, simulated time on 16-node T3D/PVM")
	for _, lv := range comm.Levels()[:4] { // the paper's ladder: baseline, rr, cc, pl
		plan := prog.Plan(lv.Opts)
		res, err := prog.Run(plan, commopt.RunOptions{Procs: 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s  static=%-3d dynamic=%-4d time=%.6fs\n",
			lv.Name, plan.StaticCount, res.DynamicTransfers, res.ExecTime.Seconds())
	}

	// Run the fully optimized program and show its output and a value.
	plan := prog.Plan(comm.PL())
	res, err := prog.Run(plan, commopt.RunOptions{Procs: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	fmt.Printf("A(10,10) = %.4f\n", res.Array("A").At(10, 10, 1))

	// Results are identical no matter how many processors simulate them.
	serial, err := prog.Run(plan, commopt.RunOptions{Procs: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel vs serial max |diff| on A: %g\n", res.MaxAbsDiff(serial, "A"))
}
