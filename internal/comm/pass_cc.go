package comm

// ccPass is communication combination: transfers with equal offsets
// (hence equal source and destination processors) and provably equal
// regions merge into one transfer when every participating array's last
// write precedes the merged transfer point. The max-combining heuristic
// merges whenever legal; max-latency-hiding only when the merge shrinks
// no member's latency-hiding window. Merged groups are re-placed
// synchronously so the intermediate plan stays valid.
type ccPass struct{}

func (ccPass) Name() string { return "cc" }

func (ccPass) Run(c *BlockContext) {
	// A transfer is hoist-eligible when its region is static and nothing
	// it carries is assigned in the enclosing loop. Combining must not mix
	// eligible and ineligible items, or the merge would pin invariant data
	// inside the loop.
	eligible := func(t *Transfer) bool {
		if c.Killed == nil || t.Region.Sym == nil {
			return false
		}
		for _, a := range t.Items {
			if c.Killed[a] {
				return false
			}
		}
		return true
	}

	var groups []*Transfer
	for _, t := range c.Transfers {
		merged := false
		for _, g := range groups {
			if g.Offset != t.Offset || !regionsCompatible(g.Region, t.Region) {
				continue
			}
			if c.Opts.HoistInvariant && eligible(g) != eligible(t) {
				continue
			}
			// Legality: every value t carries must be unchanged between
			// the group's position (its earliest use) and t's use.
			if c.Analysis.LastDefBefore(t.Items[0], t.UseIdx) >= g.UseIdx {
				continue
			}
			if g.Carries(t.Items[0]) {
				// Same array, same offset, still valid at t's use: the
				// group already delivers it (only reachable without rr).
				g.absorbSites(t)
				c.Stats.Dropped++
				merged = true
				break
			}
			if c.Opts.Heuristic == MaxLatencyHiding {
				// "Messages are only combined until the distance between
				// the combined send and receives is no smaller than any
				// of the distances of the uncombined communication":
				// merging must not shrink any member's latency-hiding
				// window.
				sg, st := sendPoint(c, g), sendPoint(c, t)
				dg := c.Analysis.Weight(sg, g.UseIdx)
				dt := c.Analysis.Weight(st, t.UseIdx)
				dm := c.Analysis.Weight(max(sg, st), min(g.UseIdx, t.UseIdx))
				if dm < max(dg, dt) {
					continue
				}
			}
			g.Items = append(g.Items, t.Items[0])
			g.absorbSites(t)
			placeSync(c, g)
			c.Stats.Merged++
			merged = true
			break
		}
		if !merged {
			groups = append(groups, t)
		}
	}
	c.Transfers = groups
}
