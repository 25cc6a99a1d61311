package experiments

import (
	"strings"
	"testing"
)

// Every benchmark's critical path under every experiment must account
// for the simulated finish time exactly — CritpathFor enforces the
// conservation invariant internally, so this test exercises it across
// the real suite at a small partition. The path must also agree with
// the cell the figures measured: same execution time, from an
// uninstrumented run.
func TestCritpathMatchesCells(t *testing.T) {
	r := NewRunner(4)
	r.Quick = true
	r.Workers = 1
	for _, bench := range BenchNames() {
		for _, exp := range Experiments() {
			p, err := r.CritpathFor(bench, exp.Key)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, exp.Key, err)
			}
			if got := p.Compute + p.Comm + p.Wait; got != p.Finish {
				t.Errorf("%s/%s: splits sum to %v, want %v", bench, exp.Key, got, p.Finish)
			}
			cell, err := r.Cell(bench, exp.Key)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, exp.Key, err)
			}
			if p.Finish != cell.Time {
				t.Errorf("%s/%s: path finish %v but uninstrumented cell measured %v",
					bench, exp.Key, p.Finish, cell.Time)
			}
		}
	}
}

// The rendered table carries one row per experiment plus the exact
// attribution headline.
func TestCritpathTable(t *testing.T) {
	r := NewRunner(4)
	r.Quick = true
	r.Workers = 1
	tbl, err := CritpathTable(r, "swm")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"exact attribution", "comm-bound", "baseline", "pl with max latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if got := len(tbl.Rows); got != len(Experiments()) {
		t.Errorf("%d rows, want %d", got, len(Experiments()))
	}
}

// CritpathFor surfaces unknown names like the other cell runners.
func TestCritpathErrors(t *testing.T) {
	r := NewRunner(4)
	if _, err := r.CritpathFor("nosuch", "pl"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := r.CritpathFor("tomcatv", "nosuch"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// The profile appendix note summarizes the scheduler counters of the
// instrumented run.
func TestProfileSchedNote(t *testing.T) {
	r := NewRunner(4)
	r.Quick = true
	tbl, err := ProfileAppendix(r, "swm", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Note, "scheduler:") || !strings.Contains(tbl.Note, "proc steps") {
		t.Errorf("profile note missing scheduler summary: %q", tbl.Note)
	}
}

// schedNote of no stats is empty.
func TestSchedNoteNil(t *testing.T) {
	if got := schedNote(nil); got != "" {
		t.Errorf("schedNote(nil) = %q, want empty", got)
	}
}
