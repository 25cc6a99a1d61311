package rt

import (
	"fmt"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/machine"
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

// side is one pair of a transfer over a statement region: the neighbour at
// displacement (dr, dc), the rows the receiver needs (its share of the
// region, shifted by the offset), and the sending class at origin offset sd.
type side struct {
	dr, dc int
	need   grid.Region
	sender *shapeClass
	sd     [2]int
}

// rect is what the side carries of array id: the needed rows the sender owns.
func (s *side) rect(id int) grid.Region {
	return s.need.Intersect(shiftDist(s.sender.locals[id], s.sd, 1))
}

// pair returns transfer t's side with the neighbour at displacement d over
// statement region reg (clipped to the neighbourhood, relative to the
// origin): a receive, data I need from it, or a send, data the neighbour at
// -d needs from me. A pair off the mesh is dropped here (!ok), not at use.
func (nc *nbhdClass) pair(t *comm.Transfer, reg grid.Region, d [2]int, recv bool) (s side, ok bool) {
	dr, dc := d[0], d[1]
	if recv {
		s = side{dr, dc, nc.fr[1][1].clip(reg), nc.nb[1+dr][1+dc], nc.d[1+dr][1+dc]}
	} else {
		s = side{-dr, -dc, nc.fr[1-dr][1-dc].clip(reg), nc.nb[1][1], [2]int{}}
	}
	s.need = s.need.Shift(t.Offset)
	return s, nc.nb[1+s.dr][1+s.dc] != nil
}

// carries reports whether transfer t moves any element over statement
// region reg: geometry's rectangles, sized but not compiled. An empty
// region (nowhere has no rank) moves nothing.
func (nc *nbhdClass) carries(t *comm.Transfer, reg grid.Region) bool {
	if reg.Empty() {
		return false
	}
	dirs, nd := neighborDirs(t.Offset)
	for i := range 2 * nd {
		s, ok := nc.pair(t, reg, dirs[i%nd], i < nd)
		if !ok {
			continue
		}
		for _, a := range t.Items {
			if !s.rect(a.ID).Empty() {
				return true
			}
		}
	}
	return false
}

// geometry compiles each of transfer t's pairs over statement region reg
// (nbhdClass.pair), receives first, into its pack/unpack run. Both sides of
// every pair compute identical rectangles from replicated state, so message
// contents never need negotiation. Send rectangles lie inside the owned
// block; a receive rectangle lies outside the halo when the program reads
// past the array's ghost width, or reads an array the processor holds none
// of, and that is the positioned program error addrOf raises, at the
// transfer's first use. Layout comes from the class representative's
// fields, at its origin, and all pairs' runs are carved from one block.
func (nc *nbhdClass) geometry(t *comm.Transfer, reg grid.Region) *commSched {
	dirs, nd := neighborDirs(t.Offset)
	me := nc.nb[1][1]
	pairs := make([]packPair, 0, 2*nd)
	runs := make([]packRun, 0, 2*nd*len(t.Items))
	recvs := 0
	for i := range 2 * nd {
		s, ok := nc.pair(t, reg, dirs[i%nd], i < nd)
		if !ok {
			continue
		}
		pr := packPair{dr: s.dr + 1, dc: s.dc + 1}
		start := len(runs)
		for _, a := range t.Items {
			rect := s.rect(a.ID)
			if rect.Empty() {
				continue
			}
			f, at := me.fields[a.ID], shiftDist(rect, me.org, 1)
			if !f.Contains(at) {
				panic(unheldRead(t.Sites[0].Pos, f, t.Offset))
			}
			pr.doubles += rect.Size()
			runs = append(runs, packRun{id: a.ID, RectRun: f.Run(at)})
		}
		pr.bytes = pr.doubles * 8
		pr.runs = runs[start:len(runs):len(runs)]
		pairs = append(pairs, pr)
		if i < nd {
			recvs++
		}
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

// execCall performs one IRONMAN call under the current library binding,
// reporting false where it parks. An observed call is a span in the
// transfer's context, open across a park, so its charges, waits and
// messages count toward the transfer's source callsites.
func (p *proc) execCall(c comm.Call) bool {
	if p.obs == nil {
		return p.dispatchCall(c)
	}
	if !p.cur.span {
		o := p.w.obs
		p.cur.span, p.cur.prev, p.cur.start, p.cur.bytes = true, p.obs.ctx, p.clock, p.bytesSent
		p.obs.ctx = ctx{o.call(c.T.Slot, c.Kind), o.site(c.T.Slot)}
	}
	if !p.dispatchCall(c) {
		return false
	}
	p.obs.add(event{kind: evCall, d: p.clock.Sub(p.cur.start), v: p.bytesSent - p.cur.bytes, x: uint8(c.Kind)})
	p.obs.ctx, p.cur.span = p.cur.prev, false
	return true
}

// dispatchCall routes one IRONMAN call to its executor. Only an SR under a
// rendezvous library and a DN can park.
func (p *proc) dispatchCall(c comm.Call) bool {
	lib := p.w.lib
	st := p.state(c.T)
	switch c.Kind {
	case comm.DR:
		p.execDR(st, lib)
	case comm.SR:
		return p.execSR(c.T, st, lib)
	case comm.DN:
		return p.execDN(c.T, st, lib)
	case comm.SV:
		p.execSV(st, lib)
		p.xfers[c.T.Slot].open = nil
		p.openCount--
	}
	return true
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

// execSR sends each pair's message, from the pair the cursor holds on, and
// reports false where it parks on a ready token.
func (p *proc) execSR(t *comm.Transfer, st *commSched, lib *machine.Lib) bool {
	for i := p.cur.pair; i < len(st.sends); i++ {
		pr := &st.sends[i]
		nb, ok := p.active(lib, pr)
		if !ok {
			continue
		}
		if lib.Rendezvous {
			// Wait for the destination's ready notification before
			// putting; this couples the two clocks. A token may carry a
			// recycled message for this pair's free list.
			tok, ok := p.nextTok(nb.slot)
			if !ok {
				p.cur.pair = i
				return false
			}
			if tok.m != nil && len(p.sendPool[nb.slot]) < poolCap {
				p.sendPool[nb.slot] = append(p.sendPool[nb.slot], tok.m)
			}
			// The token's timestamp is the destination's clock when it
			// posted ready — the departure time of the unblocking event.
			p.waitFor(tok.t, waitReady, nb.rank, tok.t)
		}
		if pr.bytes > 0 {
			p.chargeComm(lib.SRCost + machine.PerByteDur(lib.SRPerByte, pr.bytes))
		} else {
			p.chargeComm(lib.SynchEmptyCost)
		}
		p.send(t, pr, nb, lib)
	}
	p.cur.pair = 0
	p.dynTransfers++ // one communication call site executed
	return true
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
		if p.obs != nil {
			p.obs.add(event{kind: evSend, v: int64(pr.bytes), peer: int32(nb.rank)})
		}
	}
	pr.pack(m.flat, p.kctx.data)
	p.deliverData(p.w.procs[nb.rank], nb.back, m)
}

// execDN unpacks each pair's message, from the pair the cursor holds on,
// and reports false where it parks on data.
func (p *proc) execDN(t *comm.Transfer, st *commSched, lib *machine.Lib) bool {
	for i := p.cur.pair; i < len(st.recvs); i++ {
		pr := &st.recvs[i]
		nb, ok := p.active(lib, pr)
		if !ok {
			continue
		}
		m, ok := p.recvTagged(nb.slot, t.ID)
		if !ok {
			p.cur.pair = i
			return false
		}
		if m.bytes != pr.bytes {
			panic(fmt.Sprintf("rt: message size mismatch from %d: got %d want %d bytes", nb.rank, m.bytes, pr.bytes))
		}
		p.waitFor(m.avail, waitData, nb.rank, m.sent)
		if pr.bytes > 0 {
			p.chargeComm(lib.DNCost + machine.PerByteDur(lib.DNPerByte, pr.bytes))
			if p.obs != nil {
				p.obs.add(event{kind: evRecv, v: int64(pr.bytes), peer: int32(nb.rank)})
			}
		} else {
			p.chargeComm(lib.SynchEmptyCost)
		}
		pr.unpack(m.flat, p.kctx.data)
		p.recycleMsg(nb, m)
	}
	p.cur.pair = 0
	return true
}

// recvTagged returns the next message from the pair's peer for the given
// transfer tag, stashing any messages for other transfers that arrive
// first, and reports false where it parks. Within one (pair, tag) stream
// order is preserved, so iterations of the same transfer always match up.
func (p *proc) recvTagged(slot, tag int) (*dataMsg, bool) {
	if p.pending != nil {
		if q := p.pending[slot][tag]; len(q) > 0 {
			m := q[0]
			p.pending[slot][tag] = q[1:]
			return m, true
		}
	}
	for {
		m, ok := p.nextData(slot)
		if !ok || m.tag == tag {
			return m, ok
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
