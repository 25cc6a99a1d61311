program scalar_ops;

-- Scalar operands on either side of every operator, for the kernel
-- compiler's operand rule (DESIGN.md §11; also cmd/zplc, cmd/zplrun):
--   go run ./cmd/zplrun -procs 4 examples/zpl/scalar_ops.zpl
--
-- A scalar operand is a value the row loops take as they are: `a - X` and
-- `X - a` are different loops, and neither broadcasts a into a row first.
-- Every arithmetic operator appears with its scalar on the left and on the
-- right, at a statement's root and under array-by-array nodes, inside
-- min/max, under reductions, and next to a comparison and a `%`, which go
-- through the per-element function instead. The first three rows of X
-- hold -0.0, Inf and NaN, so a loop that swapped its operands, or touched
-- an element twice, shows in the sign of a zero or in the NaN count below.

config var n     : integer = 16;
config var iters : integer = 3;

region R   = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];

direction east = [0, 1]; west = [0, -1]; north = [-1, 0];

var X, Y, P, Q, S : [R] float;
var zero, a, b : float;
var nans, negs, peak, total : float;

procedure main();
begin
  zero := 0.0;
  a := 1.5;
  b := -0.75;
  [R] X := 0.01 * Index1 + 0.02 * Index2;
  [R] Y := 1.0 + Index1 - 0.5 * Index2;
  [1..1, 1..n] X := -zero;
  [2..2, 1..n] X := 1.0 / zero;
  [3..3, 1..n] X := zero / zero;
  [R] begin
    P := 0.0;
    Q := 0.0;
    S := 0.0;
  end;
  for it := 1 to iters do
    [R] begin
      P := a + X;
      Q := X + b;
      P := a - P;
      Q := Q - b;
      P := it * P;
      Q := Q * 0.5;
      P := 2.0 / P;
      Q := Q / a;
      S := min(max(X, zero), 4.0) + max(b, min(a, Y));
    end;
    [Int] begin
      P := (a - X@east) * (Y / b) + (X@west + X@north) * 0.5 - b / (Y + 2.0);
      Q := 0.5 * (P + P@west) * Y - (1.0 - Q) / (a * (Y - X) + 3.0);
      S := (P > a) + (Q <= b) + Y % 3.0 + 7.0 % (Y + 0.25) + S * (zero = 0.0);
    end;
    [1..1, 1..n] X := X * a;
  end;
  [R] nans := +<< (1.0 - (Q = Q));
  [R] negs := +<< (1.0 / X < zero);
  [R] peak := max<< abs(b * S - a);
  [4..n-1, 2..n-1] total := +<< (0.5 * S + a);
  writeln("scalar_ops after ", iters, " steps: NaNs ", nans, ", negative 1/X ", negs, ", peak ", peak, ", total ", total);
end;
