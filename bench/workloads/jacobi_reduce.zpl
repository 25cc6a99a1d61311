program jacobi_reduce;

-- scale_4096 workload of the host-time benchmark (bench/README.md).
-- U = Index1 + Index2 is a fixed point of the 5-point average and every
-- intermediate sum is an exactly representable integer, so after any
-- number of sweeps U is unchanged bit for bit and resid is exactly 0:
-- the analytic answer the harness checks against. jacobi.zpl is this
-- file without the reduction; the difference between the two prices one
-- allreduce per iteration.

config var n     : integer = 512;
config var iters : integer = 24;

region R   = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];

direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];

var U, V : [R] float;
var resid : float;

procedure main();
begin
  [R] U := Index1 + Index2;
  [R] V := U;
  for t := 1 to iters do
    [Int] begin
      V := 0.25 * (U@east + U@west + U@north + U@south);
      resid := max<< abs(V - U);
      U := V;
    end;
  end;
  writeln("resid ", resid);
end;
