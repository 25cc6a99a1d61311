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
	rec := swmTrace(t, 64, 128, 4)
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

// swmTrace records a run of swm on procs processors under shmem.
func swmTrace(t testing.TB, procs int, n, iters float64) *trace.Recorder {
	t.Helper()
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
	cfg := rt.Config{Machine: machine.T3D(), Library: "shmem", Procs: procs, Trace: rec,
		ConfigVars: map[string]float64{"n": n, "iters": iters}}
	if _, err := rt.Run(prog, comm.BuildPlan(prog, comm.PL()), cfg); err != nil {
		t.Fatal(err)
	}
	return rec
}

// FuzzValidateChrome holds ValidateChrome to any bytes: it returns an error
// or nil, and never panics. The seeds are a real trace, of swm on four
// processors, and truncations of it. go test runs the seeds; go test -fuzz
// FuzzValidateChrome grows more.
func FuzzValidateChrome(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, swmTrace(f, 4, 16, 1)); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	if err := trace.ValidateChrome(data); err != nil {
		f.Fatalf("the seed trace does not validate: %v", err)
	}
	for _, n := range []int{len(data), len(data) - 1, len(data) * 3 / 4, len(data) / 2, 64, 1, 0} {
		f.Add(data[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = trace.ValidateChrome(data) // an error or nil: a panic fails the target
	})
}
