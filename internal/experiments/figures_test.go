package experiments

import (
	"fmt"
	"strings"
	"testing"

	"commopt/internal/programs"
)

func TestFig3Table(t *testing.T) {
	out := Fig3().String()
	for _, want := range []string{"Intel Paragon (50 MHz)", "Cray T3D (150 MHz)", "~100 ns", "~150 ns", "SHMEM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Table(t *testing.T) {
	out := Fig5().String()
	for _, want := range []string{"csend", "crecv", "pvm_send", "shmem_put", "synch", "hprobe", "msgwait"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Series(t *testing.T) {
	series := Fig6()
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2 (T3D and Paragon)", len(series))
	}
	for _, s := range series {
		if len(s.X) != len(fig6Sizes) {
			t.Errorf("%s: %d points", s.Title, len(s.X))
		}
		for c, name := range s.Names {
			prev := 0.0
			for i, y := range s.Y[c] {
				if y < prev {
					t.Errorf("%s/%s: overhead decreased at point %d", s.Title, name, i)
				}
				prev = y
			}
		}
	}
}

func TestFig7Table(t *testing.T) {
	out := Fig7().String()
	for _, b := range programs.Suite() {
		if !strings.Contains(out, b.Name) || !strings.Contains(out, b.Description) {
			t.Errorf("Fig7 missing %s", b.Name)
		}
	}
}

func TestFig9Table(t *testing.T) {
	out := Fig9().String()
	for _, e := range Experiments() {
		if !strings.Contains(out, e.Key) {
			t.Errorf("Fig9 missing %q", e.Key)
		}
	}
}

func TestRunnerErrors(t *testing.T) {
	r := NewRunner(4)
	if _, err := r.Cell("nosuch", "pl"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := r.Cell("tomcatv", "nosuch"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCellCaching(t *testing.T) {
	r := runner(t)
	a, err := r.Cell("swm", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Cell("swm", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached cell differs")
	}
}

// TestScaling: the processor sweep behaves physically — parallel runs
// beat serial, and the communication share of the critical path grows
// with the partition (surface-to-volume).
func TestScaling(t *testing.T) {
	tbl, err := Scaling(sweepRunner(1), "swm", []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var times []float64
	for _, row := range tbl.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[2], "%f", &v); err != nil {
			t.Fatal(err)
		}
		times = append(times, v)
	}
	if !(times[0] > times[1] && times[1] > times[2]) {
		t.Errorf("swm does not speed up across 1/4/16 procs: %v", times)
	}
}
