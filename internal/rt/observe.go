package rt

import (
	"fmt"
	"sort"
	"strings"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/metrics"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

// This file is the runtime half of the observability subsystem: the
// per-callsite communication profile and the metrics registry. Both are
// recorded per processor without locks (profAcc slices and procMetrics
// registries are single-writer) and merged deterministically at gather.
// Event tracing shares the same per-processor pattern; its recording
// points live next to the code they observe in proc.go and commexec.go.

// CallsiteProfile attributes one plan transfer's executed communication
// back to ZPL source positions: the primary callsite (the earliest use
// whose data the transfer delivers), any further callsites folded in by
// redundancy removal or combining, and the transfer's dynamic totals
// across all processors.
type CallsiteProfile struct {
	Pos     zpl.Pos   // primary callsite (Sites[0] of the transfer)
	Label   string    // carried arrays and offset, e.g. "U,V@[0,1,0]"
	Covers  []zpl.Pos // additional callsites this transfer serves
	Hoisted bool      // executed in a loop preheader

	Calls    int            // SR executions summed over all processors
	Messages int            // non-empty point-to-point messages sent
	Bytes    int64          // payload bytes sent
	Comm     vtime.Duration // communication software overhead in the transfer's calls
	Wait     vtime.Duration // blocking waits inside the transfer's calls
}

// profAcc is one processor's accumulator for one transfer.
type profAcc struct {
	calls, msgs int
	bytes       int64
	comm, wait  vtime.Duration
}

func (g *profAcc) add(a profAcc) {
	g.calls += a.calls
	g.msgs += a.msgs
	g.bytes += a.bytes
	g.comm += a.comm
	g.wait += a.wait
}

// transferLabel renders a transfer's carried arrays and offset for
// profile rows and trace event names.
func transferLabel(t *comm.Transfer) string {
	var b strings.Builder
	for i, it := range t.Items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(it.Name)
	}
	b.WriteByte('@')
	b.WriteString(t.Offset.String())
	return b.String()
}

// gatherProfile merges the per-processor accumulators into source-sorted
// profile rows (nil when profiling was off).
func (w *world) gatherProfile() []CallsiteProfile {
	if w.procs[0].prof == nil {
		return nil
	}
	agg := make([]profAcc, w.plan.NumTransfers())
	for _, p := range w.procs {
		for slot, a := range p.prof {
			agg[slot].add(a)
		}
	}
	cagg := map[*comm.Collective]*profAcc{}
	for _, p := range w.procs {
		for c, a := range p.cprof {
			g := cagg[c]
			if g == nil {
				g = &profAcc{}
				cagg[c] = g
			}
			g.add(*a)
		}
	}
	rows := make([]CallsiteProfile, 0, len(agg)+len(cagg))
	w.eachTransfer(func(t *comm.Transfer) {
		// Rows exist for executed transfers only; every executed DR..SV
		// sequence counts a call at its SR.
		a := agg[t.Slot]
		if a.calls == 0 {
			return
		}
		row := CallsiteProfile{
			Label:   transferLabel(t),
			Hoisted: t.Hoisted,
			Calls:   a.calls, Messages: a.msgs, Bytes: a.bytes,
			Comm: a.comm, Wait: a.wait,
		}
		if len(t.Sites) > 0 {
			row.Pos = t.Sites[0].Pos
			for _, s := range t.Sites[1:] {
				row.Covers = append(row.Covers, s.Pos)
			}
		}
		rows = append(rows, row)
	})
	// Collective rows: one per reduction site, labeled with the operator
	// and the algorithm that executed it. Calls counts executions on rank
	// 0 only (one per global reduction, matching Result.Reductions);
	// messages/bytes/comm/wait sum over every rank's hops, so profile
	// rows keep summing exactly to Result.Messages/BytesSent.
	for c, a := range cagg {
		rows = append(rows, CallsiteProfile{
			Pos:   c.Pos,
			Label: c.Op.String() + " (" + w.collAlg.String() + ")",
			Calls: a.calls / len(w.procs), Messages: a.msgs, Bytes: a.bytes,
			Comm: a.comm, Wait: a.wait,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Label < b.Label
	})
	return rows
}

// Fixed bucket geometries for the runtime's histograms: message sizes in
// bytes (8 B .. 32 KB by powers of two) and virtual durations in
// nanoseconds (1 us .. ~1 s by powers of four).
var (
	msgSizeBounds  = metrics.ExpBounds(8, 2, 13)
	durationBounds = metrics.ExpBounds(1000, 4, 10)
)

// procMetrics is one processor's live metric instruments. Counters that
// mirror fields the runtime already maintains (messages, reductions,
// call counts) are folded in at gather instead of on the hot path.
type procMetrics struct {
	reg       *metrics.Registry
	msgSize   *metrics.Histogram
	waitDur   *metrics.Histogram
	stmtDur   *metrics.Histogram
	calls     [4]int64                                   // IRONMAN call executions by comm.CallKind
	stmtsByEn [2]int64                                   // statement executions by trace engine code
	caches    [len(cacheKinds)][len(cacheOutcomes)]int64 // site lookups (site.go)
	regions   [len(slotOutcomes)]int64                   // literal regions entered (site.go)
	elems     [2]int64                                   // elements kernels computed: in rows the Go loops ran, in rows the wide loops ran
}

// countElems books one kernel execution: n elements in rows of L.
func (m *procMetrics) countElems(L, n int) {
	if wide(L) {
		m.elems[1] += int64(n)
	} else {
		m.elems[0] += int64(n)
	}
}

func newProcMetrics() *procMetrics {
	reg := metrics.New()
	return &procMetrics{
		reg:     reg,
		msgSize: reg.Histogram("message_size_bytes", "bytes", msgSizeBounds),
		waitDur: reg.Histogram("wait_duration_ns", "virtual ns", durationBounds),
		stmtDur: reg.Histogram("stmt_duration_ns", "virtual ns", durationBounds),
	}
}

// gatherMetrics merges every processor's registry and folds in the
// counters kept as plain fields (nil when metrics were off).
func (w *world) gatherMetrics() *metrics.Registry {
	if w.procs[0].met == nil {
		return nil
	}
	reg := metrics.New()
	for _, p := range w.procs {
		reg.Merge(p.met.reg)
		reg.Counter("messages").Add(int64(p.messages))
		reg.Counter("bytes_sent").Add(p.bytesSent)
		reg.Counter("reductions").Add(int64(p.reductions))
		for k, n := range p.met.calls {
			reg.Counter("ironman_calls_" + strings.ToLower(comm.CallKind(k).String())).Add(n)
		}
		reg.Counter("stmts_scalar").Add(p.met.stmtsByEn[0])
		reg.Counter("stmts_kernel").Add(p.met.stmtsByEn[1])
		reg.Counter("kernel_elems_scalar").Add(p.met.elems[0])
		reg.Counter("kernel_elems_wide").Add(p.met.elems[1])
		for kind, name := range cacheKinds {
			for outcome, what := range cacheOutcomes {
				reg.Counter(name + "_cache_" + what).Add(p.met.caches[kind][outcome])
			}
		}
		for outcome, what := range slotOutcomes {
			reg.Counter("region_slot_" + what).Add(p.met.regions[outcome])
		}
	}
	reg.Counter("dynamic_transfers").Add(int64(w.procs[0].dynTransfers))
	reg.Gauge("shape_classes").Observe(int64(len(w.classes)))
	if st := w.schedStats; st != nil {
		reg.Counter("sched_workers").Add(int64(st.Workers))
		reg.Counter("sched_steps").Add(st.TotalSteps())
		reg.Counter("sched_steals").Add(st.Steals)
		for r, n := range st.Parks {
			if waitReason(r) == waitNone {
				continue
			}
			reg.Counter("sched_parks_" + strings.ReplaceAll(waitReason(r).String(), " ", "_")).Add(n)
		}
		reg.Counter("sched_parks_averted").Add(st.ParksAverted)
		reg.Gauge("sched_runq_hiwater").Observe(int64(st.RunqHiWater))
		reg.Gauge("sched_mbox_hiwater").Observe(int64(st.MboxHiWater))
	}
	return reg
}

// stmtLabel names a statement for trace events, cached per processor.
func (p *proc) stmtLabel(s ir.Stmt) string {
	if l, ok := p.stmtLabels[s]; ok {
		return l
	}
	var l string
	switch s := s.(type) {
	case *ir.AssignArray:
		l = fmt.Sprintf("%s := ... (%s)", s.LHS.Name, s.Pos)
	case *ir.AssignScalar:
		if s.HasReduce {
			l = fmt.Sprintf("%s := reduce (%s)", s.LHS.Name, s.Pos)
		} else {
			l = fmt.Sprintf("%s := scalar (%s)", s.LHS.Name, s.Pos)
		}
	case *ir.Write:
		l = fmt.Sprintf("writeln (%s)", s.Pos)
	default:
		l = fmt.Sprintf("%T", s)
	}
	if p.stmtLabels == nil {
		p.stmtLabels = map[ir.Stmt]string{}
	}
	p.stmtLabels[s] = l
	return l
}

// eachTransfer visits every transfer of the plan (Slot order).
func (w *world) eachTransfer(fn func(t *comm.Transfer)) {
	for _, bp := range w.plan.Blocks {
		for _, t := range bp.Transfers {
			fn(t)
		}
	}
}

// callName is one transfer's observability strings: the names of its
// IRONMAN call events (trace) and its primary callsite position (critical-
// path attribution).
type callName struct {
	labels [4]string // by comm.CallKind
	site   string
}

// nameCalls builds every transfer's callName, by Transfer.Slot, for all
// processors to share.
func (w *world) nameCalls() {
	w.callNames = make([]callName, w.plan.NumTransfers())
	w.eachTransfer(func(t *comm.Transfer) {
		cn := &w.callNames[t.Slot]
		for k := comm.DR; k <= comm.SV; k++ {
			cn.labels[k] = k.String() + " " + transferLabel(t)
		}
		if len(t.Sites) > 0 {
			cn.site = t.Sites[0].Pos.String()
		}
	})
}
