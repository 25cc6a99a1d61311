program sweep_updown;

-- Row sweeps whose order does not repeat, for the runtime's dispatch-site
-- caches (and cmd/zplc, cmd/zplrun):
--   go run ./cmd/zplrun -procs 16 -O pl examples/zpl/sweep_updown.zpl
--
-- relax(r) is ONE literal-bound site swept upward and then downward in
-- every pass, so the region that follows a given row changes direction
-- twice per pass; each pass also starts one row later than the last, and
-- the closing downward sweep spells its rows with a different bound
-- expression (n + 1 - k) than the loops around relax.

config var n     : integer = 32;
config var iters : integer = 4;

region R = [1..n, 1..n];

direction north = [-1, 0]; south = [1, 0];

var U, F : [R] float;
var it, lo : integer;
var total : float;

procedure relax(r : integer);
begin
  [r..r, 2..n-1] U := 0.5 * U + 0.25 * (U@north + U@south) + F;
end;

procedure main();
begin
  [R] U := 0.0;
  [R] F := 0.001 * Index1 + 0.002 * Index2;
  [1..1, 1..n] U := 1.0;
  [n..n, 1..n] U := 2.0;
  it := 0;
  repeat
    it := it + 1;
    lo := 1 + it;
    for i := lo to n - 1 do
      relax(i);
    end;
    for j := n - 1 downto lo do
      relax(j);
    end;
    for k := 2 to n - lo do
      [n+1-k..n+1-k, 2..n-1] begin
        F := 0.5 * (F + U@north);
        U := U - 0.125 * F;
      end;
    end;
  until it >= iters;
  [R] total := +<< U;
  writeln("sweep_updown total after ", iters, " passes: ", total);
end;
