program midblock;
-- A block that assigns a scalar one of its literal region's bounds reads:
-- the two statements of the scope run over different rows, so the second
-- X@north is not the first one's data (regress_test.go).
config var n : integer = 16;
region R = [1..n, 1..n];
direction north = [-1, 0];
var X, C, D : [R] float;
var k : integer;
procedure main();
begin
  [R] X := Index1;
  k := 3;
  [k..k, 1..n] begin
    C := X@north;
    k := k + 2;
    D := X@north;
  end;
end;
