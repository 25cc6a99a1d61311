package vet

import (
	"strings"
	"testing"

	"commopt/internal/programs"
)

func TestLevelsCoverPaperAndExtensions(t *testing.T) {
	var names []string
	for _, lv := range Levels() {
		names = append(names, lv.Name)
	}
	got := strings.Join(names, ",")
	want := "baseline,rr,cc,pl,pl-maxlat,pl+hoist"
	if got != want {
		t.Errorf("Levels() = %s, want %s", got, want)
	}
}

func TestSourceCleanBenchmarks(t *testing.T) {
	for _, b := range programs.Suite() {
		if list := Source(b.Name, b.Source); len(list.Findings) > 0 {
			var buf strings.Builder
			list.Text(&buf, false)
			t.Errorf("%s: findings on a bundled benchmark:\n%s", b.Name, buf.String())
		}
	}
}

// TestProtocolCleanBenchmarks holds every bundled benchmark's plans to
// zero protocol findings across all levels, machines and bindings.
func TestProtocolCleanBenchmarks(t *testing.T) {
	for _, b := range programs.Suite() {
		list, err := Protocol(b.Name, b.Source, 4)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(list.Findings) > 0 {
			var buf strings.Builder
			list.Text(&buf, false)
			t.Errorf("%s: protocol findings on a bundled benchmark:\n%s", b.Name, buf.String())
		}
	}
}

// Parse errors stop the run: no lint or verifier noise cascades.
func TestSourceParseErrorsOnly(t *testing.T) {
	const src = `program p;
region R = [1..8];
var A : [R] float;
procedure main();
begin
  A := ;
  A := 1.0 +;
end;
`
	list := Source("p", src)
	if len(list.Findings) == 0 {
		t.Fatal("no findings for broken source")
	}
	for _, f := range list.Findings {
		if f.Rule != RuleParse {
			t.Errorf("finding rule %s, want only %s", f.Rule, RuleParse)
		}
	}
	if len(list.Findings) < 2 {
		t.Errorf("got %d parse findings, want both errors reported", len(list.Findings))
	}
}

func TestSourceSemaError(t *testing.T) {
	const src = `program p;
region R = [1..8];
var A : [R] float;
procedure main();
begin
  [R] A := B;
end;
`
	list := Source("p", src)
	found := false
	for _, f := range list.Findings {
		if f.Rule == RuleSema {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s finding for undeclared identifier; findings: %+v", RuleSema, list.Findings)
	}
}
