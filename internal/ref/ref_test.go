package ref

import (
	"math"
	"slices"
	"strings"
	"testing"

	"commopt/internal/zpl"
)

// TestRunPinnedToLanguage holds the evaluator to LANGUAGE.md with every
// expected value written out: these are the rules the runtime is held to
// through it.
func TestRunPinnedToLanguage(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name   string
		src    string
		vars   map[string]float64
		arrays map[string][]float64
		output string
	}{
		{
			name: "whole-array semantics",
			src: `program shift;
region R = [1..1, 1..4];
direction east = [0, 1];
var A : [R] float;
procedure main();
begin
  [R] A := Index2;
  [R] A := A@east;    -- every read sees A before the statement
end;
`,
			arrays: map[string][]float64{"A": {2, 3, 4, 0}},
		},
		{
			name: "mid-block literal region",
			src: `program midblock;
region R = [1..5, 1..2];
direction north = [-1, 0];
var X, C, D : [R] float;
var k : integer;
procedure main();
begin
  [R] X := Index1;
  k := 2;
  [k..k, 1..2] begin
    C := X@north;     -- row 2
    k := k + 2;
    D := X@north;     -- row 4
  end;
end;
`,
			arrays: map[string][]float64{
				"C": {0, 0, 1, 1, 0, 0, 0, 0, 0, 0},
				"D": {0, 0, 0, 0, 0, 0, 3, 3, 0, 0},
			},
		},
		{
			name: "a read past a region's edge is zero",
			src: `program edge;
region R = [1..3, 1..1];
direction north = [-1, 0]; south = [1, 0];
var A, B : [R] float;
procedure main();
begin
  [R] A := Index1 * 10;
  [R] B := A@north + A@south;
end;
`,
			arrays: map[string][]float64{"A": {10, 20, 30}, "B": {20, 40, 20}},
		},
		{
			name: "a write is clipped to the LHS's region",
			src: `program clip;
region R = [1..3, 1..3];
region C = [2..3, 2..3];
var B : [C] float;
procedure main();
begin
  [R] B := Index1 * 10 + Index2;
end;
`,
			arrays: map[string][]float64{"B": {22, 23, 32, 33}},
		},
		{
			name: "max<< over a NaN",
			src: `program nan;
region R = [1..1, 1..3];
var A : [R] float;
var mid, last : float;
procedure main();
begin
  [R] A := Index2;
  [1..1, 2..2] A := 0.0 / 0.0;
  [R] mid := max<< A;           -- 1, NaN, 3: the NaN replaces 1, 3 replaces it
  [1..1, 2..2] A := 2.0;
  [1..1, 3..3] A := 0.0 / 0.0;
  [R] last := max<< A;          -- 1, 2, NaN
  writeln(mid, " ", last);
end;
`,
			arrays: map[string][]float64{"A": {1, 2, nan}},
			output: "3 NaN\n",
		},
		{
			name: "downto and elsif",
			src: `program ctl;
var s : float;
procedure main();
begin
  for i := 3 downto 1 do
    if i = 3 then s := s * 10 + 1;
    elsif i = 2 then s := s * 10 + 2;
    else s := s * 10 + 3;
    end;
  end;
  writeln(s);
end;
`,
			output: "123\n",
		},
		{
			name: "procedure locals keep their values between calls",
			src: `program statics;
region R = [1..1, 1..2];
procedure tick(d : float);
var c : float;
var A : [R] float;
begin
  c := c + d;
  [R] A := A + d;
  writeln("c = ", c);
end;
procedure main();
begin
  tick(1.0);
  tick(2.0);
end;
`,
			arrays: map[string][]float64{"tick.A": {3, 3}},
			output: "c = 1\nc = 3\n",
		},
		{
			name: "a config override",
			src: `program cfg;
config var n : integer = 2;
constant m : integer = n + 1;
region R = [1..m, 1..1];
var A : [R] float;
procedure main();
begin
  [R] A := Index1 * n;
end;
`,
			vars:   map[string]float64{"n": 3},
			arrays: map[string][]float64{"A": {3, 6, 9, 12}},
		},
		{
			name: "writeln formatting",
			src: `program fmt;
procedure main();
begin
  writeln("x = ", 0.5, " ", 1e21, " ", 7, " ", 1.0 / 3.0, " ", true, " ", -0.0);
end;
`,
			output: "x = 0.5 1e+21 7 0.3333333333333333 1 -0\n",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := zpl.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(prog, c.vars)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range c.arrays {
				same := func(x, y float64) bool { return x == y || x != x && y != y }
				if got := res.Arrays[name]; got == nil || !slices.EqualFunc(got.Data, want, same) {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}
			if res.Output != c.output {
				t.Errorf("output %q, want %q", res.Output, c.output)
			}
		})
	}
}

// TestRunReturnsErrors: a program error at run time is an error with a
// position, not a panic.
func TestRunReturnsErrors(t *testing.T) {
	prog, err := zpl.Parse(`program half;
region R = [1..4, 1..4];
var A : [R] float;
var x : float;
procedure main();
begin
  x := 1.5;
  [1..x, 1..4] A := 1.0;
end;
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, nil); err == nil || !strings.Contains(err.Error(), "8:3: region bound 1.5 is not an integer") {
		t.Errorf("error %v, want one at 8:3 naming the bound", err)
	}
}
