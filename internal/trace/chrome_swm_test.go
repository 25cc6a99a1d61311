package trace_test

import (
	"bytes"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/trace"
	"commopt/internal/zpl"
)

// TestWriteChromeMatchesEncodingJSON holds the trace writer, byte for byte,
// to encoding/json marshaling the same events: on a recorded swm run on 64
// processors under shmem, every kind of event a run records — calls,
// statements on both engines, sends, receives, waits, reductions and their
// hops, and flows.
func TestWriteChromeMatchesEncodingJSON(t *testing.T) {
	b, err := programs.ByName("swm")
	if err != nil {
		t.Fatal(err)
	}
	ast, err := zpl.Parse(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	cfg := rt.Config{Machine: machine.T3D(), Library: "shmem", Procs: 64, Trace: rec,
		ConfigVars: map[string]float64{"n": 128, "iters": 4}}
	if _, err := rt.Run(prog, comm.BuildPlan(prog, comm.PL()), cfg); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := trace.WriteChrome(&got, rec); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChromeReference(&want, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("trace differs from encoding/json's at byte %d of %d/%d:\n got  %q\n want %q",
			i, len(g), len(w), g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
	for _, kind := range []string{`"cat":"ironman"`, `"call":"DN"`, `"engine":"scalar"`, `"engine":"kernel"`, `"cat":"send"`, `"cat":"recv"`, `"cat":"wait"`, `"cat":"reduce"`, `"cat":"flow"`, `"level":`} {
		if !bytes.Contains(got.Bytes(), []byte(kind)) {
			t.Errorf("the recorded trace has no %s event", kind)
		}
	}
}
