package rt

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/ir"
	"commopt/internal/metrics"
	"commopt/internal/trace"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

// This file is the runtime's one observer. Every processor records what it
// does, once, into its own log of fixed-size events (obsLog): clock advances
// in the context they were charged in, messages, and the ends of statement,
// IRONMAN call, collective hop and reduction spans. The log folds into the
// trace ring, the critical-path segments, the callsite profile and the
// metrics registry through those packages' APIs: a processor folds its log
// each time it fills, and gather folds the rest. Only this file and rt.go's
// Config and Result name those packages. Events carry no timestamp: the
// clock moves only by charges and waits, which are events, so a fold sums
// them, and a span ending at the clock began its length before it.

// observers is what one run observes: the reports Config asked for, the
// world's label table, and, under mu, the profile rows and metrics every
// processor's log folds into (kept whatever Config asked for; gather
// reports what it did).
type observers struct {
	cfg Config // what the run asked for

	// names is the label table: every statement, call, hop, reduction-phase
	// and site string of the run, once, by label id. 0 is the empty label;
	// calls, the sites of the profile's rows (transfers, then collectives)
	// and reduction phases follow at fixed offsets (call, site, phase), then
	// the statements (stmts) and the hops (hops[r][i] names rank r's
	// collective step i).
	names  []string
	xfers  []*comm.Transfer // by Transfer.Slot
	stmts  map[ir.Stmt]int32
	hops   [][]int32
	intern map[string]int32

	mu                        sync.Mutex
	reg                       *metrics.Registry
	msgSize, waitDur, stmtDur *metrics.Histogram
	calls                     [4]int64          // IRONMAN calls by comm.CallKind
	stmtsBy                   [2]int64          // statements by engine
	rows                      []CallsiteProfile // by Transfer.Slot, then by Collective.ID
	noRow                     CallsiteProfile   // what no row attributes
}

func (o *observers) call(slot int, k comm.CallKind) int32 { return int32(1 + 4*slot + int(k)) }
func (o *observers) site(row int) int32                   { return int32(1 + 4*len(o.xfers) + row) }
func (o *observers) collSite(c int) int32                 { return o.site(len(o.xfers) + c) }
func (o *observers) phase(c int) int32                    { return o.site(len(o.rows) + c) }

// label returns the id of name, adding it to the table on first sight.
func (o *observers) label(name string) int32 {
	id, ok := o.intern[name]
	if !ok {
		id = int32(len(o.names))
		o.names = append(o.names, name)
		o.intern[name] = id
	}
	return id
}

// row returns the profile row that charges, waits and messages in context c
// count toward: by the site of its call's transfer or its hop's collective.
func (o *observers) row(c ctx) *CallsiteProfile {
	if i := int(c.site - o.site(0)); c.site >= o.site(0) && i < len(o.rows) {
		return &o.rows[i]
	}
	return &o.noRow
}

// Fixed bucket geometries for the runtime's histograms: message sizes in
// bytes (8 B .. 32 KB by powers of two) and virtual durations in
// nanoseconds (1 us .. ~1 s by powers of four).
var (
	msgSizeBounds  = metrics.ExpBounds(8, 2, 13)
	durationBounds = metrics.ExpBounds(1000, 4, 10)
)

// observe gives the world its observers and every processor an empty log
// when cfg asks for any report.
func (w *world) observe(cfg Config) {
	if cfg.Trace == nil && cfg.Critpath == nil && !cfg.Profile && !cfg.Metrics {
		return
	}
	n := w.plan.NumTransfers()
	o := &observers{
		cfg: cfg, xfers: make([]*comm.Transfer, n),
		stmts: map[ir.Stmt]int32{}, intern: map[string]int32{},
		reg:  metrics.New(),
		rows: make([]CallsiteProfile, n+len(w.plan.Collectives)),
	}
	o.msgSize = o.reg.Histogram("message_size_bytes", "bytes", msgSizeBounds)
	o.waitDur = o.reg.Histogram("wait_duration_ns", "virtual ns", durationBounds)
	o.stmtDur = o.reg.Histogram("stmt_duration_ns", "virtual ns", durationBounds)
	o.names = make([]string, o.phase(len(w.plan.Collectives)))
	for _, bp := range w.plan.Blocks {
		for _, s := range bp.Stmts {
			o.stmts[s] = o.label(stmtName(s))
		}
		for _, t := range bp.Transfers {
			o.xfers[t.Slot] = t
			for k := comm.DR; k <= comm.SV; k++ {
				o.names[o.call(t.Slot, k)] = k.String() + " " + t.Label()
			}
			if len(t.Sites) > 0 {
				o.names[o.site(t.Slot)] = t.Sites[0].Pos.String()
			}
		}
	}
	for _, c := range w.plan.Collectives {
		o.names[o.collSite(c.ID)] = c.Pos.String()
		o.names[o.phase(c.ID)] = "allreduce " + c.Op.String() + " (" + w.collAlg.String() + ")"
	}
	if w.coll != nil {
		o.hops = make([][]int32, len(w.coll.Steps))
		for r, steps := range w.coll.Steps {
			o.hops[r] = make([]int32, len(steps))
			for i, st := range steps {
				o.hops[r][i] = o.label(collStepName(st))
			}
		}
	}
	if cfg.Trace != nil {
		cfg.Trace.Init(len(w.procs))
	}
	if cfg.Critpath != nil {
		cfg.Critpath.Init(len(w.procs))
	}
	w.obs = o
	for _, p := range w.procs {
		p.obs = &obsLog{o: o, ev: make([]event, 0, obsChunk)}
		if cfg.Trace != nil {
			p.obs.tb = cfg.Trace.Buffer(p.rank)
			cfg.Trace.SetProcLabel(p.rank, fmt.Sprintf("proc %d (%d,%d)", p.rank, p.row, p.col))
		}
		if cfg.Critpath != nil {
			p.obs.cl = cfg.Critpath.Log(p.rank)
		}
	}
}

// stmtName names a statement for the trace and the critical path.
func stmtName(s ir.Stmt) string {
	switch s := s.(type) {
	case *ir.AssignArray:
		return fmt.Sprintf("%s := ... (%s)", s.LHS.Name, s.Pos)
	case *ir.AssignScalar:
		if s.HasReduce {
			return fmt.Sprintf("%s := reduce (%s)", s.LHS.Name, s.Pos)
		}
		return fmt.Sprintf("%s := scalar (%s)", s.LHS.Name, s.Pos)
	case *ir.Write:
		return fmt.Sprintf("writeln (%s)", s.Pos)
	}
	return fmt.Sprintf("%T", s)
}

// obsLog is one processor's observation log: its events not yet folded,
// in program order, the clock where they begin, and the context it
// records them in; and the processor's trace ring and critical-path log
// (nil when not asked for).
type obsLog struct {
	o   *observers
	ev  []event
	at  vtime.Time
	ctx ctx
	tb  *trace.Buffer
	cl  *critpath.Log
}

// obsChunk is how many events a log holds before its processor folds them.
const obsChunk = 256

// ctx is an attribution context, as label ids: the statement, call or hop
// executing and the source position it answers to (0 where the label
// carries it).
type ctx struct{ label, site int32 }

// event is one record of an obsLog, 32 bytes. Compute, comm and wait
// advance the clock by d; send and receive happen at the clock; the span
// kinds (stmt, call, hops, phase) end at the clock, d after they began.
type event struct {
	d    vtime.Duration
	v    int64 // wait: the sender's clock at departure; send, recv, call, hops: bytes
	ctx  ctx   // where it happened; a span's own
	peer int32 // wait: the sender; send, recv, hops: the other rank
	kind evKind
	x    uint8 // wait: waitReason; stmt: engine; call: comm.CallKind; hops: level
}

type evKind uint8

const (
	evCompute evKind = iota
	evComm
	evWait
	evSend
	evRecv
	evStmt
	evCall
	evHopSend
	evHopRecv
	evPhase
)

// Statement engines as a stmt event records them: trace's engine codes.
const (
	engineScalar = uint8(trace.EngineScalar)
	engineKernel = uint8(trace.EngineKernel)
)

// waitReason says which event a parked or waiting processor is blocked
// on: the critical path's reasons, so a critical-path report and a
// deadlock report (sched.go) speak the same vocabulary.
type waitReason = critpath.Reason

const (
	waitNone  = critpath.None
	waitData  = critpath.Data   // message from a neighbor slot
	waitReady = critpath.Ready  // rendezvous ready token from a neighbor slot
	waitRed   = critpath.Reduce // reduction contribution or broadcast
)

// waitNames names a wait by its reason in the trace.
var waitNames = [...]string{waitData: "wait data", waitReady: "wait ready", waitRed: "wait reduce"}

// charge records a clock advance of d (compute or comm), merged into the
// last event when that is an advance of the same kind and context.
func (l *obsLog) charge(kind evKind, d vtime.Duration) {
	if d <= 0 {
		return
	}
	if n := len(l.ev); n > 0 && l.ev[n-1].kind == kind && l.ev[n-1].ctx == l.ctx {
		l.ev[n-1].d += d
		return
	}
	l.add(event{kind: kind, d: d})
}

// add records e in the current context, folding the log first if full.
func (l *obsLog) add(e event) {
	if len(l.ev) == obsChunk {
		l.flush()
	}
	e.ctx = l.ctx
	l.ev = append(l.ev, e)
}

// flush folds the log's events into the processor's trace ring and
// critical-path log and into the run's profile rows and metrics, and
// empties it. Rows and metrics only add or keep maxima, so the order in
// which processors fold does not show.
func (l *obsLog) flush() {
	o, tb, cl := l.o, l.tb, l.cl
	o.mu.Lock()
	defer o.mu.Unlock()
	now := l.at
	for _, e := range l.ev {
		row, name, start := o.row(e.ctx), o.names[e.ctx.label], now.Add(-e.d)
		if e.kind <= evWait {
			start, now = now, now.Add(e.d)
			if cl != nil {
				cl.Context(name, o.names[e.ctx.site])
				switch e.kind {
				case evCompute:
					cl.Compute(start, e.d)
				case evComm:
					cl.Comm(start, e.d)
				default:
					cl.Wait(start, e.d, waitReason(e.x), int(e.peer), vtime.Time(e.v))
				}
			}
		}
		var ev trace.Event
		switch e.kind {
		case evComm:
			row.Comm += e.d
		case evWait:
			ev = trace.Event{Kind: trace.KindWait, Start: start, Dur: e.d, Name: waitNames[e.x]}
			o.waitDur.Observe(int64(e.d))
			row.Wait += e.d
		case evSend, evRecv:
			ev = trace.Event{Kind: trace.KindSend, Start: now, Name: "send", A0: int64(e.peer), A1: e.v, A2: int64(o.xfers[e.ctx.site-o.site(0)].ID)}
			if e.kind == evRecv {
				ev.Kind, ev.Name = trace.KindRecv, "recv"
			} else {
				o.send(row, e.v)
			}
		case evStmt:
			ev = trace.Event{Kind: trace.KindStmt, Start: start, Dur: e.d, Name: name, A0: int64(e.x)}
			o.stmtDur.Observe(int64(e.d))
			o.stmtsBy[e.x]++
		case evCall:
			ev = trace.Event{Kind: trace.KindCall, Start: start, Dur: e.d, Name: name, A0: int64(e.x), A1: e.v}
			o.calls[e.x]++
			if comm.CallKind(e.x) == comm.SR {
				row.Calls++
			}
		case evHopSend, evHopRecv:
			ev = trace.Event{Kind: trace.KindReduce, Start: start, Dur: e.d, Name: name, A0: int64(e.x), A1: e.v, A2: int64(e.peer)}
			if e.kind == evHopSend {
				o.send(row, e.v)
			}
		case evPhase:
			ev = trace.Event{Kind: trace.KindReduce, Start: start, Dur: e.d, Name: name, A0: -1}
			row.Calls++
		}
		if tb != nil && ev.Name != "" {
			tb.Add(ev)
		}
	}
	l.at = now
	l.ev = l.ev[:0]
}

// send books one message of the given bytes.
func (o *observers) send(row *CallsiteProfile, bytes int64) {
	o.msgSize.Observe(bytes)
	row.Messages++
	row.Bytes += bytes
}

// report folds what is left of every processor's log, drops the logs and
// completes the reports Config asked for.
func (w *world) report(res *Result) {
	o := w.obs
	if o == nil {
		return
	}
	for _, p := range w.procs {
		p.obs.flush()
		p.obs = nil
	}
	if o.cfg.Profile {
		res.Profile = w.profile()
	}
	if o.cfg.Metrics {
		res.Metrics = w.metrics()
	}
}

// CallsiteProfile attributes one plan transfer's executed communication
// back to ZPL source positions: the primary callsite (the earliest use
// whose data the transfer delivers), any further callsites folded in by
// redundancy removal or combining, and the transfer's dynamic totals
// across all processors.
type CallsiteProfile struct {
	Pos     zpl.Pos   // primary callsite (Sites[0] of the transfer)
	Label   string    // carried arrays and offset, e.g. "U,V@[0,1,0]"
	Covers  []zpl.Pos // further callsites this transfer serves: distinct, not Pos, in source order
	Hoisted bool      // executed in a loop preheader

	Calls    int            // SR executions summed over all processors
	Messages int            // non-empty point-to-point messages sent
	Bytes    int64          // payload bytes sent
	Comm     vtime.Duration // communication software overhead in the transfer's calls
	Wait     vtime.Duration // blocking waits inside the transfer's calls
}

// profile makes the folded rows source-sorted profile rows: one per
// executed transfer, then one per executed reduction site.
func (w *world) profile() []CallsiteProfile {
	o := w.obs
	rows := make([]CallsiteProfile, 0, len(o.rows))
	for _, t := range o.xfers {
		// Rows exist for executed transfers only; every executed DR..SV
		// sequence counts a call at its SR.
		row := o.rows[t.Slot]
		if row.Calls == 0 {
			continue
		}
		row.Label, row.Hoisted = t.Label(), t.Hoisted
		if len(t.Sites) > 0 {
			row.Pos = t.Sites[0].Pos
			for _, s := range t.Sites[1:] {
				if s.Pos != row.Pos {
					row.Covers = append(row.Covers, s.Pos)
				}
			}
			slices.SortFunc(row.Covers, cmpPos)
			row.Covers = slices.Compact(row.Covers)
		}
		rows = append(rows, row)
	}
	// Collective rows: one per reduction site, labeled with the operator
	// and the algorithm that executed it. Calls counts executions per rank
	// (one per global reduction, matching Result.Reductions); messages,
	// bytes, comm and wait sum over every rank's hops, so profile rows keep
	// summing exactly to Result.Messages and BytesSent.
	for _, c := range w.plan.Collectives {
		row := o.rows[len(o.xfers)+c.ID]
		if row.Calls == 0 {
			continue
		}
		row.Pos, row.Label = c.Pos, c.Op.String()+" ("+w.collAlg.String()+")"
		row.Calls /= len(w.procs)
		rows = append(rows, row)
	}
	slices.SortStableFunc(rows, func(a, b CallsiteProfile) int {
		return cmp.Or(cmpPos(a.Pos, b.Pos), strings.Compare(a.Label, b.Label))
	})
	return rows
}

func cmpPos(a, b zpl.Pos) int { return cmp.Or(cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col)) }

// metrics completes the folded registry with the counters every processor
// keeps as plain fields and the scheduler's statistics.
func (w *world) metrics() *metrics.Registry {
	o := w.obs
	reg := o.reg
	for k, n := range o.calls {
		reg.Counter("ironman_calls_" + strings.ToLower(comm.CallKind(k).String())).Add(n)
	}
	reg.Counter("stmts_scalar").Add(o.stmtsBy[engineScalar])
	reg.Counter("stmts_kernel").Add(o.stmtsBy[engineKernel])
	for _, p := range w.procs {
		reg.Counter("messages").Add(int64(p.messages))
		reg.Counter("bytes_sent").Add(p.bytesSent)
		reg.Counter("reductions").Add(int64(p.reductions))
		reg.Counter("kernel_elems").Add(p.elems)
		for outcome, what := range cacheOutcomes {
			reg.Counter("sched_cache_" + what).Add(p.caches[outcome])
		}
		for outcome, what := range slotOutcomes {
			reg.Counter("region_slot_" + what).Add(p.regionCounts[outcome])
		}
		reg.Gauge("arena_hiwater_doubles").Observe(int64(p.arenaHi))
	}
	reg.Counter("dynamic_transfers").Add(int64(w.procs[0].dynTransfers))
	reg.Counter("kernel_compiles").Add(int64(w.compiles))
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
