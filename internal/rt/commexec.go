package rt

import (
	"fmt"

	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/grid"
	"commopt/internal/machine"
	"commopt/internal/trace"
	"commopt/internal/vtime"
)

// dataMsg is one point-to-point message: the ghost rectangles of every
// array carried by a transfer between one processor pair, packed into one
// flat buffer (the receiver's mirrored run list knows where every value
// goes). Messages move between processors by pointer, and a message is
// recycled back to its sender after unpacking (bufpool.go), so in steady
// state the comm path allocates nothing. tag identifies the transfer within
// its basic block: with pipelining, two transfers between the same pair may
// be received in a different order than they were sent (their DN positions
// need not preserve SR order), so the receiver demultiplexes by tag rather
// than assuming FIFO.
type dataMsg struct {
	tag   int
	sent  vtime.Time // sender's clock when the message departed (critical-path edge)
	avail vtime.Time // earliest time the data is present at the destination
	bytes int
	flat  []float64 // every rectangle of the pair, packed contiguously in item order
}

// neighborDirs enumerates the mesh displacements a transfer with offset
// off exchanges data with, in a fixed deterministic order: the row
// component, the column component, then the diagonal. The first n entries
// of dirs are valid.
func neighborDirs(off grid.Offset) (dirs [3][2]int, n int) {
	r, c := min(max(off[0], -1), 1), min(max(off[1], -1), 1) // signs
	if r != 0 {
		dirs[n] = [2]int{r, 0}
		n++
	}
	if c != 0 {
		dirs[n] = [2]int{0, c}
		n++
	}
	if n == 2 {
		dirs[n] = [2]int{r, c}
		n++
	}
	return dirs, n
}

// geometry computes the send and receive rectangles of transfer t over
// statement region reg — clipped to the neighbourhood and relative to the
// processor's origin — and compiles each into its pack/unpack run. Both
// sides of every pair compute identical rectangles from replicated state, so
// message contents never need negotiation. Send rectangles lie inside the
// owned block and receive rectangles inside the halo, so field.Run's
// containment check can only fail on a geometry bug; it panics rather than
// silently corrupting data. Layout comes from the class representative's
// fields, at its origin, and all pairs' runs are carved from one block.
func (nc *nbhdClass) geometry(t *comm.Transfer, reg grid.Region) *commSched {
	dirs, nd := neighborDirs(t.Offset)
	me := nc.nb[1][1]
	pairs := make([]packPair, 0, 2*nd)
	runs := make([]packRun, 0, 2*nd*len(t.Items))
	// add appends the pair exchanging with the neighbour at displacement
	// (dr, dc): the part of iter (the receiver's share of the statement
	// region), shifted by the transfer's offset, that sender owns at origin
	// offset sd. A pair off the mesh is dropped here, not at use.
	add := func(dr, dc int, iter grid.Region, sender *shapeClass, sd [2]int) {
		if nc.nb[dr+1][dc+1] == nil {
			return
		}
		pr := packPair{dr: dr + 1, dc: dc + 1}
		need := iter.Shift(t.Offset)
		start := len(runs)
		for _, a := range t.Items {
			rect := need.Intersect(shiftDist(sender.locals[a.ID], sd, 1))
			if rect.Empty() {
				continue
			}
			pr.doubles += rect.Size()
			runs = append(runs, packRun{id: a.ID, RectRun: me.fields[a.ID].Run(shiftDist(rect, me.org, 1))})
		}
		pr.bytes = pr.doubles * 8
		pr.runs = runs[start:len(runs):len(runs)]
		pairs = append(pairs, pr)
	}
	iterMe := nc.fr[1][1].clip(reg)
	// Receive side: data I need from the neighbor at displacement d.
	for _, d := range dirs[:nd] {
		add(d[0], d[1], iterMe, nc.nb[1+d[0]][1+d[1]], nc.d[1+d[0]][1+d[1]])
	}
	recvs := len(pairs)
	// Send side: data the neighbor at displacement -d needs from me.
	for _, d := range dirs[:nd] {
		add(-d[0], -d[1], nc.fr[1-d[0]][1-d[1]].clip(reg), me, [2]int{})
	}
	return &commSched{recvs: pairs[:recvs:recvs], sends: pairs[recvs:]}
}

// emptySched is what transfer t means wherever its region leaves a
// processor's whole neighbourhood nothing: every pair of the transfer's
// directions, empty. Only an unconditionally synchronizing library acts on
// such pairs.
func emptySched(t *comm.Transfer) *commSched {
	dirs, nd := neighborDirs(t.Offset)
	pairs := make([]packPair, 0, 2*nd)
	for _, sign := range [2]int{1, -1} {
		for _, d := range dirs[:nd] {
			pairs = append(pairs, packPair{dr: 1 + sign*d[0], dc: 1 + sign*d[1]})
		}
	}
	return &commSched{recvs: pairs[:nd:nd], sends: pairs[nd:]}
}

// execCall performs one IRONMAN call under the current library binding.
// With observability enabled it brackets the call to attribute the
// clock's communication and wait deltas (and any messages sent) to the
// transfer's source callsites, and records the call as a trace span.
func (p *proc) execCall(c comm.Call) {
	if p.tr == nil && p.prof == nil && p.met == nil && p.cpl == nil {
		p.dispatchCall(c)
		return
	}
	var prevLabel, prevSite string
	if p.cpl != nil {
		cn := &p.w.callNames[c.T.Slot]
		prevLabel, prevSite = p.cpl.Context(cn.labels[c.Kind], cn.site)
	}
	start := p.clock
	comm0, wait0 := p.commT, p.waitT
	msgs0, bytes0 := p.messages, p.bytesSent
	p.dispatchCall(c)
	if p.cpl != nil {
		p.cpl.Context(prevLabel, prevSite)
	}
	if p.met != nil {
		p.met.calls[c.Kind]++
	}
	if p.prof != nil {
		a := &p.prof[c.T.Slot]
		a.comm += p.commT - comm0
		a.wait += p.waitT - wait0
		a.msgs += p.messages - msgs0
		a.bytes += p.bytesSent - bytes0
		if c.Kind == comm.SR {
			a.calls++
		}
	}
	if p.tr != nil {
		p.tr.Add(trace.Event{
			Kind: trace.KindCall, Start: start, Dur: p.clock.Sub(start),
			Name: p.w.callNames[c.T.Slot].labels[c.Kind], A0: int64(c.Kind), A1: p.bytesSent - bytes0,
		})
	}
}

// dispatchCall routes one IRONMAN call to its executor.
func (p *proc) dispatchCall(c comm.Call) {
	lib := p.w.lib
	st := p.state(c.T)
	switch c.Kind {
	case comm.DR:
		p.execDR(st, lib)
	case comm.SR:
		p.execSR(c.T, st, lib)
	case comm.DN:
		p.execDN(c.T, st, lib)
	case comm.SV:
		p.execSV(st, lib)
		p.xfers[c.T.Slot].open = nil
		p.openCount--
	}
}

// active binds a schedule's pair to this processor's neighbour table and
// reports whether the pair participates: the neighbour must exist, and
// under message-passing bindings the transfer must carry data — only the
// prototype SHMEM binding synchronizes unconditionally.
func (p *proc) active(lib *machine.Lib, pr *packPair) (*neighbor, bool) {
	nb := &p.nbr[pr.dr][pr.dc]
	return nb, nb.slot >= 0 && (pr.bytes > 0 || lib.UnconditionalSynch)
}

func (p *proc) execDR(st *commSched, lib *machine.Lib) {
	if lib.Rendezvous {
		// Destination-ready: notify each source that our buffer may be
		// written (the SHMEM "synch" of Figure 5). The token carries a
		// finished message back to the source's free list when one is
		// waiting.
		for i := range st.recvs {
			pr := &st.recvs[i]
			nb, ok := p.active(lib, pr)
			if !ok {
				continue
			}
			if pr.bytes > 0 {
				p.chargeComm(lib.DRCost)
			} else {
				p.chargeComm(lib.SynchEmptyCost)
			}
			p.deliverTok(p.w.procs[nb.rank], nb.back, readyTok{t: p.clock, m: p.popRet(nb.slot)})
		}
		return
	}
	// Message passing: DR posts a receive (irecv/hprobe) or is a no-op.
	for i := range st.recvs {
		if st.recvs[i].bytes > 0 {
			p.chargeComm(lib.DRCost)
		}
	}
}

func (p *proc) execSR(t *comm.Transfer, st *commSched, lib *machine.Lib) {
	p.dynTransfers++ // one communication call site executed
	for i := range st.sends {
		pr := &st.sends[i]
		nb, ok := p.active(lib, pr)
		if !ok {
			continue
		}
		if lib.Rendezvous {
			// Wait for the destination's ready notification before
			// putting; this couples the two clocks. A token may carry a
			// recycled message for this pair's free list.
			tok := p.nextTok(nb.slot)
			if tok.m != nil && len(p.sendPool[nb.slot]) < poolCap {
				p.sendPool[nb.slot] = append(p.sendPool[nb.slot], tok.m)
			}
			// The token's timestamp is the destination's clock when it
			// posted ready — the departure time of the unblocking event.
			p.waitEdge(tok.t, "wait ready", critpath.Ready, nb.rank, tok.t)
		}
		if pr.bytes > 0 {
			p.chargeComm(lib.SRCost + machine.PerByteDur(lib.SRPerByte, pr.bytes))
		} else {
			p.chargeComm(lib.SynchEmptyCost)
		}
		p.send(t, pr, nb, lib)
	}
}

// send captures the pair's rectangles now (the source may overwrite them
// after SV) — packed into one recycled flat buffer by the pair's compiled
// run list — and delivers the message into the peer's mailbox.
func (p *proc) send(t *comm.Transfer, pr *packPair, nb *neighbor, lib *machine.Lib) {
	m := p.takeMsg(nb.slot, pr.doubles)
	m.tag = t.ID
	m.bytes = pr.bytes
	m.sent = p.clock
	m.avail = p.clock.Add(lib.Latency + machine.PerByteDur(lib.WirePerByte, pr.bytes))
	m.flat = m.flat[:pr.doubles]
	if pr.bytes > 0 {
		p.messages++
		p.bytesSent += int64(pr.bytes)
		if p.met != nil {
			p.met.msgSize.Observe(int64(pr.bytes))
		}
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindSend, Start: p.clock, Name: "send", A0: int64(nb.rank), A1: int64(pr.bytes), A2: int64(t.ID)})
		}
	}
	pr.pack(m.flat, p.kctx.data)
	p.deliverData(p.w.procs[nb.rank], nb.back, m)
}

func (p *proc) execDN(t *comm.Transfer, st *commSched, lib *machine.Lib) {
	for i := range st.recvs {
		pr := &st.recvs[i]
		nb, ok := p.active(lib, pr)
		if !ok {
			continue
		}
		m := p.recvTagged(nb.slot, t.ID)
		if m.bytes != pr.bytes {
			panic(fmt.Sprintf("rt: message size mismatch from %d: got %d want %d bytes", nb.rank, m.bytes, pr.bytes))
		}
		p.waitEdge(m.avail, "wait data", critpath.Data, nb.rank, m.sent)
		if pr.bytes > 0 {
			p.chargeComm(lib.DNCost + machine.PerByteDur(lib.DNPerByte, pr.bytes))
			if p.tr != nil {
				p.tr.Add(trace.Event{Kind: trace.KindRecv, Start: p.clock, Name: "recv", A0: int64(nb.rank), A1: int64(pr.bytes), A2: int64(t.ID)})
			}
		} else {
			p.chargeComm(lib.SynchEmptyCost)
		}
		pr.unpack(m.flat, p.kctx.data)
		p.recycleMsg(nb, m)
	}
}

// recvTagged returns the next message from the pair's peer for the given
// transfer tag, stashing any messages for other transfers that arrive
// first. Within one (pair, tag) stream order is preserved, so iterations
// of the same transfer always match up.
func (p *proc) recvTagged(slot, tag int) *dataMsg {
	if p.pending != nil {
		if q := p.pending[slot][tag]; len(q) > 0 {
			m := q[0]
			p.pending[slot][tag] = q[1:]
			return m
		}
	}
	for {
		m := p.nextData(slot)
		if m.tag == tag {
			return m
		}
		// First out-of-order message: most programs are fully in order, so
		// the whole stash structure materializes only when pipelining
		// actually reorders two transfers of a block.
		if p.pending == nil {
			p.pending = make([]map[int][]*dataMsg, len(p.neighbors))
		}
		if p.pending[slot] == nil {
			p.pending[slot] = map[int][]*dataMsg{}
		}
		p.pending[slot][m.tag] = append(p.pending[slot][m.tag], m)
	}
}

func (p *proc) execSV(st *commSched, lib *machine.Lib) {
	if lib.Rendezvous {
		return // puts complete at SR; SV compiles to a no-op
	}
	for i := range st.sends {
		if st.sends[i].bytes > 0 {
			p.chargeComm(lib.SVCost)
		}
	}
}
