package rt

import (
	"bytes"
	"encoding/json"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/trace"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

// laplaceSrc has four communicating stencil reads inside a loop, a
// reduction, and a hoistable transfer pattern — enough to exercise every
// observability path.
const laplaceSrc = `program lap;
config var n : integer = 8;
config var iters : integer = 3;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];
var U, V : [R] float;
var resid : float;
procedure main();
begin
  [R] U := Index1 + Index2;
  for t := 1 to iters do
    [Int] begin
      V := 0.25 * (U@east + U@west + U@north + U@south);
      resid := max<< abs(V - U);
      U := V;
    end;
  end;
  writeln("resid = ", resid);
end;
`

// pipeSrc is shaped for pipelining and hoisting: A@east's send can hoist
// past the B statement (A's last write is the block's first statement),
// and C is never written in the loop, so C@east is loop-invariant.
const pipeSrc = `program pipe;
config var n : integer = 8;
config var iters : integer = 3;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B, C, V : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1;
  [R] B := Index2;
  [R] C := Index1 + Index2;
  for t := 1 to iters do
    [Int] begin
      A := A + 1.0;
      B := B * 0.5 + A;
      V := A@east + C@east;
    end;
  end;
  [Int] s := max<< V;
  writeln("s = ", s);
end;
`

// runSrc compiles src under one optimizer configuration and runs it with
// the given observability settings filled into cfg.
func runSrc(t *testing.T, src string, opts comm.Options, cfg Config) *Result {
	t.Helper()
	ast, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	plan := comm.BuildPlan(prog, opts)
	if cfg.Machine == nil {
		cfg.Machine = machine.T3D()
	}
	if cfg.Library == "" {
		cfg.Library = "pvm"
	}
	if cfg.Procs == 0 {
		cfg.Procs = 4
	}
	res, err := Run(prog, plan, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// The per-callsite profile is exact: its rows partition the run's
// point-to-point traffic, so their totals must equal the Result's
// whole-run counters under every optimizer configuration and library.
func TestProfileSumsMatchResult(t *testing.T) {
	cases := []struct {
		name string
		opts comm.Options
		lib  string
	}{
		{"baseline", comm.Baseline(), "pvm"},
		{"rr", comm.RR(), "pvm"},
		{"cc", comm.CC(), "pvm"},
		{"pl", comm.PL(), "pvm"},
		{"pl shmem", comm.PL(), "shmem"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runSrc(t, laplaceSrc, c.opts, Config{Library: c.lib, Profile: true})
			if len(res.Profile) == 0 {
				t.Fatal("profile is empty")
			}
			var msgs int
			var bytes int64
			for _, row := range res.Profile {
				msgs += row.Messages
				bytes += row.Bytes
			}
			if msgs != res.Messages {
				t.Errorf("profile messages sum %d != Result.Messages %d", msgs, res.Messages)
			}
			if bytes != res.BytesSent {
				t.Errorf("profile bytes sum %d != Result.BytesSent %d", bytes, res.BytesSent)
			}
		})
	}
}

// Every clock advance is charged to exactly one breakdown category, so
// each processor's categories must sum to its finish time, and the
// critical path must be the latest finisher.
func TestBreakdownSumsToFinish(t *testing.T) {
	for _, lib := range []string{"pvm", "shmem"} {
		res := runSrc(t, laplaceSrc, comm.PL(), Config{Library: lib, Procs: 16})
		var worst vtime.Duration
		for rank, bd := range res.PerProc {
			if bd.Total() != bd.Finish {
				t.Errorf("%s rank %d: compute %d + comm %d + wait %d = %d != finish %d",
					lib, rank, bd.Compute, bd.Comm, bd.Wait, bd.Total(), bd.Finish)
			}
			if bd.Finish > worst {
				worst = bd.Finish
			}
		}
		if worst != res.ExecTime {
			t.Errorf("%s: max finish %d != ExecTime %d", lib, worst, res.ExecTime)
		}
	}
}

// Turning on every observability feature must not perturb the simulation:
// same virtual times, same traffic, same program output, same data.
func TestObservabilityDoesNotChangeResults(t *testing.T) {
	plain := runSrc(t, laplaceSrc, comm.PL(), Config{})
	rec := trace.NewRecorder()
	observed := runSrc(t, laplaceSrc, comm.PL(), Config{Trace: rec, Profile: true, Metrics: true})

	if plain.ExecTime != observed.ExecTime {
		t.Errorf("ExecTime %d != %d", plain.ExecTime, observed.ExecTime)
	}
	if plain.Messages != observed.Messages || plain.BytesSent != observed.BytesSent {
		t.Errorf("traffic (%d msgs, %d B) != (%d msgs, %d B)",
			plain.Messages, plain.BytesSent, observed.Messages, observed.BytesSent)
	}
	if plain.Output != observed.Output {
		t.Errorf("output %q != %q", plain.Output, observed.Output)
	}
	for _, name := range []string{"U", "V"} {
		if d := plain.MaxAbsDiff(observed, name); d != 0 {
			t.Errorf("array %s differs by %g", name, d)
		}
	}
	if rec.Buffer(0).Len() == 0 {
		t.Error("rank 0 recorded no events")
	}
}

// firstSend returns the earliest virtual timestamp of any processor's
// point-to-point send event (edge processors may never send).
func firstSend(t *testing.T, rec *trace.Recorder) vtime.Time {
	t.Helper()
	var first vtime.Time
	found := false
	for rank := 0; rank < rec.Procs(); rank++ {
		for _, e := range rec.Buffer(rank).Events() {
			if e.Kind == trace.KindSend && (!found || e.Start < first) {
				first, found = e.Start, true
			}
		}
	}
	if !found {
		t.Fatal("no send events in trace")
	}
	return first
}

// Pipelining hoists sends earlier in virtual time: at baseline, SR sits
// immediately before its use (after both compute statements), while -O pl
// moves it to just after the carried array's last write, so the first
// send of the run fires at an earlier virtual timestamp.
func TestPipelinedSendsHoistEarlier(t *testing.T) {
	send := func(opts comm.Options) vtime.Time {
		rec := trace.NewRecorder()
		runSrc(t, pipeSrc, opts, Config{Trace: rec})
		return firstSend(t, rec)
	}
	base, pl := send(comm.Baseline()), send(comm.PL())
	if pl >= base {
		t.Errorf("first send with pl at %d ns, not earlier than baseline at %d ns", pl, base)
	}
}

// With the hoist extension enabled, the profile marks loop-hoisted
// transfers (C@east is invariant in pipeSrc's loop).
func TestProfileMarksHoisted(t *testing.T) {
	res := runSrc(t, pipeSrc, comm.PLHoist(), Config{Profile: true})
	hoisted := 0
	for _, row := range res.Profile {
		if row.Hoisted {
			hoisted++
		}
	}
	if hoisted == 0 {
		t.Error("no profile row marked hoisted under pl")
	}
	base := runSrc(t, pipeSrc, comm.Baseline(), Config{Profile: true})
	for _, row := range base.Profile {
		if row.Hoisted {
			t.Errorf("baseline row %s marked hoisted", row.Label)
		}
	}
}

// The metrics registry's counters agree with the Result's own totals.
func TestMetricsMatchResult(t *testing.T) {
	res := runSrc(t, laplaceSrc, comm.PL(), Config{Metrics: true, Procs: 64, ConfigVars: map[string]float64{"n": 16}})
	reg := res.Metrics
	if reg == nil {
		t.Fatal("Metrics nil with Config.Metrics set")
	}
	if got := reg.Counter("messages").N; got != int64(res.Messages) {
		t.Errorf("messages counter %d != Result.Messages %d", got, res.Messages)
	}
	if got := reg.Counter("bytes_sent").N; got != res.BytesSent {
		t.Errorf("bytes_sent counter %d != Result.BytesSent %d", got, res.BytesSent)
	}
	if got := reg.Counter("dynamic_transfers").N; got != int64(res.DynamicTransfers) {
		t.Errorf("dynamic_transfers counter %d != Result.DynamicTransfers %d", got, res.DynamicTransfers)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Histograms []struct {
			Name       string
			Count, Sum int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var sizes int
	for _, h := range out.Histograms {
		if h.Name != "message_size_bytes" {
			continue
		}
		sizes++
		if h.Count != int64(res.Messages) {
			t.Errorf("message size histogram count %d != Result.Messages %d", h.Count, res.Messages)
		}
		if h.Sum != res.BytesSent {
			t.Errorf("message size histogram sum %d != Result.BytesSent %d", h.Sum, res.BytesSent)
		}
	}
	if sizes != 1 {
		t.Errorf("%d message_size_bytes histograms in the registry's JSON, want 1", sizes)
	}
	// The residual reduction stages its rows in the arena, which first
	// grows to 1024 doubles; the gauge is the largest over all processors.
	if got := reg.Gauge("arena_hiwater_doubles").V; got < 1024 {
		t.Errorf("arena_hiwater_doubles = %d, want at least one arena's first growth (1024)", got)
	}
	// Every DR..SV sequence resolves its schedule exactly once, at DR.
	// laplace's regions are all declared, so a processor's first sequence
	// of a transfer either compiles the schedule or finds it compiled by a
	// member of its neighbourhood class, and every later sequence is a
	// static hit. No neighbourhood is left out of a region this size.
	static, class, compiles := reg.Counter("sched_cache_hits_static").N, reg.Counter("sched_cache_hits_class").N, reg.Counter("sched_cache_compiles").N
	if drs := reg.Counter("ironman_calls_dr").N; static+class+compiles != drs || compiles == 0 || class == 0 || static < class+compiles {
		t.Errorf("schedule cache: %d static hits + %d class hits + %d compiles, want them to sum to the %d DR calls", static, class, compiles, drs)
	}
	if n := reg.Counter("sched_cache_hits_empty").N; n != 0 {
		t.Errorf("schedule cache: %d empty resolves, want none", n)
	}
	if n := reg.Counter("sched_cache_hits_slot").N + reg.Counter("region_slot_evals").N; n != 0 {
		t.Errorf("schedule cache: %d literal-region hits and evaluations in a program without literal regions", n)
	}
}

// The two kernel_elems counters split every element a kernel computed —
// assignments and reduction partials alike — by the row loops its rows ran
// in, so they sum to the statements' region sizes whatever the machine.
func TestKernelElemsCounters(t *testing.T) {
	for _, n := range []int{8, 80} { // on 2x2: rows of 3-4 and of 39-40
		res := runSrc(t, laplaceSrc, comm.PL(), Config{Metrics: true, ConfigVars: map[string]float64{"n": float64(n)}})
		scalar, wideN := res.Metrics.Counter("kernel_elems_scalar").N, res.Metrics.Counter("kernel_elems_wide").N
		total := int64(n*n + 3*3*(n-2)*(n-2)) // U's initialisation, then V, the partial and U in each of 3 iterations
		if scalar+wideN != total {
			t.Errorf("n=%d: %d scalar + %d wide elements, want %d in all", n, scalar, wideN, total)
		}
		if want := wide(n/2 - 1); (wideN > 0) != want || (scalar > 0) == want {
			t.Errorf("n=%d: %d scalar and %d wide elements, but wide(%d) is %v", n, scalar, wideN, n/2-1, want)
		}
	}
}

// Results without observability enabled leave the optional fields nil.
func TestObservabilityOffByDefault(t *testing.T) {
	res := runSrc(t, laplaceSrc, comm.PL(), Config{})
	if res.Profile != nil {
		t.Error("Profile non-nil without Config.Profile")
	}
	if res.Metrics != nil {
		t.Error("Metrics non-nil without Config.Metrics")
	}
}
