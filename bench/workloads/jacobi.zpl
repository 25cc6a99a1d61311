program jacobi;

-- jacobi_reduce.zpl without its reduction: the same 5-point sweep, no
-- allreduce. The harness runs both at one size and reports the
-- difference as the cost of one reduction per iteration
-- (collective.cpu_us_per_reduction, bench/README.md).

config var n     : integer = 512;
config var iters : integer = 24;

region R   = [1..n, 1..n];
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
