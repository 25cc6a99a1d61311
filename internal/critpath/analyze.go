package critpath

import (
	"fmt"
	"sort"

	"commopt/internal/vtime"
)

// PathSeg is one piece of the extracted critical path: a sub-interval of
// one recorded segment on one processor. Pieces are chronological and
// their durations sum exactly to the run's finish time (the conservation
// invariant Analyze enforces). A piece with From >= 0 is the tail of a
// wait whose end was caused by a message from that rank — the path
// crosses to the sender at the piece's start.
type PathSeg struct {
	Rank   int
	Start  vtime.Time
	Dur    vtime.Duration
	Kind   Kind
	Reason Reason
	From   int // incoming-edge sender; -1 for local pieces
	Label  string
	Site   string
}

// End returns the piece's end time.
func (s PathSeg) End() vtime.Time { return s.Start.Add(s.Dur) }

// Path is the critical path of one recorded run: the backward-traced
// chain of segments and message edges that bounds the simulated finish
// time.
type Path struct {
	Finish   vtime.Duration // the run's simulated execution time
	CritRank int            // the latest-finishing rank the trace starts from
	Segs     []PathSeg      // chronological; durations sum exactly to Finish

	Compute vtime.Duration // path time in statement execution and control
	Comm    vtime.Duration // path time in communication software overhead
	Wait    vtime.Duration // path time blocked (wire latency and queueing)
	Hops    int            // cross-processor edges traversed
	Procs   int            // distinct ranks the path visits
}

// CommBound returns the path share that is communication: overhead plus
// waits. This is the quantity the optimization levels attack, and the
// critpath experiment checks it shrinks baseline -> rr -> cc -> pl.
func (p *Path) CommBound() vtime.Duration { return p.Comm + p.Wait }

// Analyze verifies every log's tiling invariant and extracts the
// critical path.
//
// The walk starts at the latest finisher (lowest rank on ties, matching
// the runtime's Result.Breakdown choice) at its finish time and moves
// backward. At time t on rank r it finds the segment containing t. A
// wait segment carrying a cross-processor edge contributes the in-flight
// interval (sendT, t] to the path and the walk jumps to the sender at
// the departure time sendT — the blocked time before the message existed
// is not on the causal chain, but everything after the message departed
// (wire latency plus queueing) is, and is reported as Wait. Any other segment contributes (start, t]
// and the walk continues locally. Pieces therefore tile (0, finish]
// exactly; Analyze returns an error if any log violates tiling or the
// pieces fail to sum to the finish time.
func Analyze(r *Recorder) (*Path, error) {
	n := r.Procs()
	if n == 0 {
		return nil, fmt.Errorf("critpath: recorder holds no processors (was the run configured with Critpath?)")
	}
	total := 0
	for rank := 0; rank < n; rank++ {
		if err := r.Log(rank).check(rank); err != nil {
			return nil, err
		}
		total += len(r.Log(rank).Segs())
	}

	crit, finish := 0, vtime.Time(0)
	for rank := 0; rank < n; rank++ {
		if end := r.Log(rank).End(); end > finish {
			crit, finish = rank, end
		}
	}
	p := &Path{CritRank: crit, Finish: vtime.Duration(finish)}
	if finish == 0 {
		return p, nil
	}

	// Backward walk. Each step either shortens t or crosses a message
	// edge at constant t (the rendezvous case: the wait ends exactly at
	// the token's departure time); an edge always lands on a segment that
	// shortens t next step, so total+n steps bound the walk.
	var rev []PathSeg
	rank, t := crit, finish
	for steps := 0; t > 0; steps++ {
		if steps > total+n {
			return nil, fmt.Errorf("critpath: path walk exceeded %d steps (cyclic edges?)", total+n)
		}
		log := r.Log(rank)
		segs := log.Segs()
		// Greatest segment with Start < t; tiling guarantees it contains t.
		i := sort.Search(len(segs), func(i int) bool { return segs[i].Start >= t }) - 1
		if i < 0 || segs[i].End() < t {
			return nil, fmt.Errorf("critpath: proc %d has no segment containing time %v", rank, t)
		}
		seg := segs[i]
		c := log.ctxs[seg.ctx]
		if seg.Kind == Wait && seg.From != NoSender {
			from := int(seg.From)
			if from < 0 || from >= n || from == rank {
				return nil, fmt.Errorf("critpath: proc %d wait segment at %v names invalid sender %d", rank, seg.Start, from)
			}
			if seg.SendT > t {
				return nil, fmt.Errorf("critpath: proc %d wait ending %v unblocked by a message sent later (%v from proc %d)", rank, t, seg.SendT, from)
			}
			// The piece runs from the message's departure to the wait's end:
			// once the message exists, the binding constraint is its wire
			// latency and queueing, reported as wait — even if the receiver
			// was still computing when it departed (the piece then starts
			// before this wait segment does; chronological tiling of the
			// path is preserved because the walk jumps to the sender at
			// exactly the departure time).
			if t > seg.SendT {
				rev = append(rev, PathSeg{
					Rank: rank, Start: seg.SendT, Dur: t.Sub(seg.SendT), Kind: Wait,
					Reason: seg.Reason, From: from, Label: c.label, Site: c.site,
				})
			}
			p.Hops++
			rank, t = from, seg.SendT
			continue
		}
		rev = append(rev, PathSeg{
			Rank: rank, Start: seg.Start, Dur: t.Sub(seg.Start), Kind: seg.Kind,
			Reason: seg.Reason, From: -1, Label: c.label, Site: c.site,
		})
		t = seg.Start
	}

	p.Segs = make([]PathSeg, len(rev))
	for i, s := range rev {
		p.Segs[len(rev)-1-i] = s
	}
	var sum vtime.Duration
	seen := map[int]bool{}
	for _, s := range p.Segs {
		sum += s.Dur
		seen[s.Rank] = true
		switch s.Kind {
		case Compute:
			p.Compute += s.Dur
		case Comm:
			p.Comm += s.Dur
		case Wait:
			p.Wait += s.Dur
		}
	}
	p.Procs = len(seen)
	if sum != p.Finish {
		return nil, fmt.Errorf("critpath: path pieces sum to %v, finish time is %v (conservation violated)", sum, p.Finish)
	}
	return p, nil
}

// Contribution aggregates the path time charged to one attribution
// context.
type Contribution struct {
	Kind   Kind
	Reason Reason
	Label  string
	Site   string
	Dur    vtime.Duration
	Pieces int
}

// Contributions aggregates the path by (kind, reason, label, site),
// sorted by descending duration (label on ties). The durations sum to
// Finish, so the table is a complete account of the run's simulated time.
func (p *Path) Contributions() []Contribution {
	type key struct {
		kind   Kind
		reason Reason
		label  string
		site   string
	}
	agg := map[key]*Contribution{}
	order := []*Contribution{}
	for _, s := range p.Segs {
		k := key{s.Kind, s.Reason, s.Label, s.Site}
		c := agg[k]
		if c == nil {
			c = &Contribution{Kind: s.Kind, Reason: s.Reason, Label: s.Label, Site: s.Site}
			agg[k] = c
			order = append(order, c)
		}
		c.Dur += s.Dur
		c.Pieces++
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Dur != order[j].Dur {
			return order[i].Dur > order[j].Dur
		}
		if order[i].Label != order[j].Label {
			return order[i].Label < order[j].Label
		}
		return order[i].Site < order[j].Site
	})
	out := make([]Contribution, len(order))
	for i, c := range order {
		out[i] = *c
	}
	return out
}

// Chain is one maximal single-processor run of the path: the bounding
// chain stays on Rank from Start to End before a message edge carries it
// to another processor.
type Chain struct {
	Rank       int
	Start, End vtime.Time
	Dur        vtime.Duration
	Segs       int
}

// Chains splits the path into its maximal single-rank runs, in
// chronological order.
func (p *Path) Chains() []Chain {
	var out []Chain
	for _, s := range p.Segs {
		if n := len(out); n > 0 && out[n-1].Rank == s.Rank {
			out[n-1].End = s.End()
			out[n-1].Dur += s.Dur
			out[n-1].Segs++
			continue
		}
		out = append(out, Chain{Rank: s.Rank, Start: s.Start, End: s.End(), Dur: s.Dur, Segs: 1})
	}
	return out
}

// TopChains returns the k longest chains by duration (chronological on
// ties).
func (p *Path) TopChains(k int) []Chain {
	chains := p.Chains()
	sort.SliceStable(chains, func(i, j int) bool { return chains[i].Dur > chains[j].Dur })
	if k < len(chains) {
		chains = chains[:k]
	}
	return chains
}
