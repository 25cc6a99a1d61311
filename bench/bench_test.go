package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// contract mirrors the root BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// own workload and metric lists identical, name for name and in order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	c := readContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if got := c.Workloads[i]; got.Name != d.Name || got.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)", i, got.Name, got.Why, d.Name, d.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if !name.MatchString(d.Name) {
				t.Errorf("%s: name %q is not made of letters, digits, _ . -", kind, d.Name)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound differs from the harness's %g", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
	if float64(c.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default is %g", c.RunSeconds, defaultSeconds)
	}
}

// TestSmokeEmitsEveryMetricOnce runs every workload at miniature sizes
// with one timed and one traced repetition. No check may fail, and every
// metric of BENCHMARK.json must be printed exactly once, by name and with
// its unit, both in the table and in the contract's JSON line.
func TestSmokeEmitsEveryMetricOnce(t *testing.T) {
	c := readContract(t)
	for _, def := range c.Workloads {
		t.Run(def.Name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{workload: def.Name, seed: 1997, smoke: true, trace: 1, outDir: dir}
			var table bytes.Buffer
			res, err := runWorkload(o, &table)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedOps != 0 || res.Ops == 0 {
				t.Fatalf("ops=%d failed_ops=%d: %v", res.Ops, res.FailedOps, res.Failures)
			}
			rows := map[string][][]string{} // table rows by their first field
			for _, line := range strings.Split(table.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 {
					rows[f[0]] = append(rows[f[0]], f)
				}
			}
			for trace, metrics := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
				o.trace = trace
				var line bytes.Buffer
				printContractLine(&line, o, res)
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line.Bytes(), &got); err != nil {
					t.Fatalf("contract line: %v\n%s", err, line.String())
				}
				if !got.Correct || got.Attempted != res.Ops || got.Failed != 0 || len(got.Metrics) != len(metrics) {
					t.Errorf("trace %d: contract line %s", trace, line.String())
				}
				for _, m := range metrics {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit || g.Value == nil {
						t.Errorf("trace %d: metric %s missing from the contract line or unit differs: %+v", trace, m.Name, g)
					}
					if r := rows[m.Name]; len(r) != 1 || r[0][2] != m.Unit {
						t.Errorf("metric %s is not printed exactly once with unit %s: %v", m.Name, m.Unit, r)
					}
				}
			}

			// The span file on disk holds a balanced ledger.
			data, err := os.ReadFile(filepath.Join(dir, "trace."+def.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			if err := ledgerBalances(&tracer{spans: file.Spans}); err != nil {
				t.Errorf("span ledger: %v", err)
			}
		})
	}
}

// TestChecksCanFail perturbs one element of one reference array and one
// predicted message count: both must surface as failed ops and a non-zero
// exit code.
func TestChecksCanFail(t *testing.T) {
	wl, err := newWorkload("wavefront_sync", 1997, true)
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*runset)
	w.rep(nil, nil, nil)
	clean := &checker{}
	if err := w.prepare(clean); err != nil {
		t.Fatal(err)
	}
	w.rep(clean, nil, nil)
	if clean.failed != 0 {
		t.Fatalf("unperturbed run fails %d checks: %v", clean.failed, clean.failures)
	}

	victim, other := w.specs[0], w.specs[len(w.specs)-1]
	w.l.refs[victim.refKey()].arrays[0].data[0] += 1e-6
	w.l.preds[other.label()].Messages++
	c := &checker{}
	w.rep(c, nil, nil)
	var sawArray, sawPrediction bool
	for _, f := range c.failures {
		sawArray = sawArray || strings.Contains(f, "differs from the 1-processor reference")
		sawPrediction = sawPrediction || strings.Contains(f, "cost.Predict differs")
	}
	if !sawArray || !sawPrediction || c.ops != clean.ops {
		t.Errorf("perturbed run: ops=%d (clean %d) failed=%d: %v", c.ops, clean.ops, c.failed, c.failures)
	}
	if code := exitCode([]workloadResult{{Ops: c.ops, FailedOps: c.failed}}); code == 0 {
		t.Error("exit code 0 with failed ops")
	}
	if code := exitCode([]workloadResult{{Ops: clean.ops}}); code != 0 {
		t.Errorf("exit code %d without failed ops", code)
	}
}

// TestSpanLedger checks the tracer's arithmetic on a hand-made tree and
// that a broken ledger is reported.
func TestSpanLedger(t *testing.T) {
	var none *tracer
	none.in("ignored", "", func() {}) // a nil tracer records nothing
	tr := newTracer("t")
	tr.in("root", "", func() {
		tr.in("a", "", func() { tr.in("a1", "", func() {}) })
		tr.in("b", "", func() {})
	})
	tr.finish()
	if len(tr.spans) != 4 || tr.spans[2].Parent != 1 || tr.spans[3].Parent != 0 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	if err := ledgerBalances(tr); err != nil {
		t.Error(err)
	}
	tr.spans[3].Parent = 3
	if ledgerBalances(tr) == nil {
		t.Error("a span that is its own parent passes the ledger check")
	}
	tr.spans[3].Parent = 0
	tr.spans[1].SelfUS += 0.02*tr.spans[0].durUS() + 1
	if ledgerBalances(tr) == nil {
		t.Error("self times 2% off the root pass the ledger check")
	}
}

// TestYardstickNormalises checks the arithmetic that turns a measured time
// into one over the host's slowdown: a yardstick that took twice its
// nominal wall time halves the repetition's, no reading leaves it alone.
func TestYardstickNormalises(t *testing.T) {
	var none *yardstick
	if wall, cpu := none.follow(time.Second).slowdown(); wall != 1 || cpu != 1 {
		t.Errorf("no yardstick: slowdown %g, %g, want 1, 1", wall, cpu)
	}
	y, err := newYardstick(2)
	if err != nil {
		t.Fatal(err)
	}
	got := y.follow(time.Millisecond)
	if wall, cpu := got.slowdown(); got.nominal < 3*yardMinNS || got.lanes != 2 || wall <= 0 || cpu <= 0 {
		t.Errorf("reading after a short window: %+v", got)
	}
	slowed := func(wall, cpu time.Duration, slowWall, slowCPU float64) repCost {
		yard := yardCost{nominal: time.Second, lanes: 2, wall: time.Duration(slowWall * float64(time.Second)), cpu: time.Duration(slowCPU * 2 * float64(time.Second))}
		return repCost{meter: meter{wall: wall, cpu: cpu}, yard: yard}
	}
	r := slowed(2*time.Second, 3*time.Second, 2, 1.5)
	if wall, cpu := r.seconds(); wall != 1 || cpu != 2 {
		t.Errorf("2 s wall at slowdown 2, 3 s cpu at slowdown 1.5: got %g, %g, want 1, 2", wall, cpu)
	}
	// A burst only the middle reading caught does not move its repetition.
	walls, _, slowdowns := normalised([]repCost{r, slowed(2*time.Second, 3*time.Second, 9, 9), r, r})
	for i := range walls {
		if walls[i] != 1 || slowdowns[i] != 2 {
			t.Errorf("repetition %d: %g s at slowdown %g, want 1 s at 2", i, walls[i], slowdowns[i])
		}
	}
}

// TestDifferentialsAtFullSize runs the traced run of the two workloads
// with first-iteration and reduction differentials at the benchmark's own
// sizes (about a minute; set BENCH_FULL=1). The differences of medians
// must not be negative there.
func TestDifferentialsAtFullSize(t *testing.T) {
	if os.Getenv("BENCH_FULL") == "" {
		t.Skip("set BENCH_FULL=1 to run at full size")
	}
	for _, name := range []string{"wavefront_sync", "scale_4096"} {
		res, err := runWorkload(options{workload: name, seed: 1997, seconds: 1, trace: 1, outDir: t.TempDir()}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"rt.world_s", "rt.first_iter_s", "rt.steady_iter_ms", "collective.cpu_us_per_reduction"} {
			if v := res.Layers[m].Value; v < 0 || (v == 0 && !strings.HasPrefix(m, "collective.")) {
				t.Errorf("%s: %s = %g", name, m, v)
			}
		}
		if res.FailedOps != 0 {
			t.Errorf("%s: %v", name, res.Failures)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall ...float64) *resultFile {
		metrics := map[string]stat{}
		for _, d := range endToEnd {
			metrics[d.Name] = newStat(d.Unit, 1, 1, 1)
		}
		metrics["wall_s"] = newStat("s", wall...)
		return &resultFile{
			Env: envInfo{GOMAXPROCS: 2, Seed: 7, Seconds: 16},
			Workloads: []workloadResult{{
				Name: "w", Sizes: []string{"a", "b"}, OpsPerRep: 5, SimS: 1.5, Metrics: metrics,
				Layers: map[string]stat{"rt.messages": newStat("count", 9), "comm.static_count": newStat("count", 4)},
			}},
		}
	}
	base := mk(1.00, 1.01, 1.02)
	rows := func(b *resultFile) (int, string) {
		var out bytes.Buffer
		code := compareResults(&out, base, b)
		return code, out.String()
	}
	if code, out := rows(mk(1.05, 1.06, 1.07)); code != 0 || strings.Contains(out, "regressed") || strings.Contains(out, "unresolved") {
		t.Errorf("5%% worse, inside the bound: exit %d\n%s", code, out)
	}
	if code, out := rows(mk(1.30, 1.31, 1.32)); code != 1 || !strings.Contains(out, "regressed") {
		t.Errorf("30%% worse, beyond the bound: exit %d\n%s", code, out)
	}
	if code, out := rows(mk(0.9, 1.2, 1.5)); code != 0 || !strings.Contains(out, "unresolved") {
		t.Errorf("spread wider than the bound, runs interleaved: exit %d\n%s", code, out)
	}
	if code, out := rows(mk(0.5, 0.7, 0.9)); code != 0 || strings.Contains(out, "unresolved") {
		t.Errorf("spread wider than the bound, every run better: exit %d\n%s", code, out)
	}
	moved := mk(1.00, 1.01, 1.02)
	moved.Workloads[0].SimS = 1.6
	if code, out := rows(moved); code != 1 || !strings.Contains(out, "regressed") {
		t.Errorf("simulated time moved: exit %d\n%s", code, out)
	}

	for name, edit := range map[string]func(*resultFile){
		"gomaxprocs": func(f *resultFile) { f.Env.GOMAXPROCS = 4 },
		"seed":       func(f *resultFile) { f.Env.Seed = 8 },
		"sizes":      func(f *resultFile) { f.Workloads[0].Sizes = []string{"a", "c"} },
	} {
		other := mk(1.00, 1.01, 1.02)
		edit(other)
		if comparable(base, other) == nil {
			t.Errorf("results with different %s are compared", name)
		}
	}
	if err := comparable(base, mk(1, 1, 1)); err != nil {
		t.Error(err)
	}
}
