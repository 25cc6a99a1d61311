package experiments

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"commopt/internal/report"
	"commopt/internal/rt"
)

// schedNote summarizes one run's scheduler counters for a table note:
// how many host workers stepped how many processor turns, why processors
// parked, and how deep the runnable queue and mailboxes ever got.
func schedNote(st *rt.SchedStats) string {
	if st == nil {
		return ""
	}
	var parks []string
	for i, n := range st.Parks {
		if i == 0 || n == 0 {
			continue
		}
		parks = append(parks, fmt.Sprintf("%s %d", st.ParkReason(i), n))
	}
	return fmt.Sprintf("scheduler: %d worker(s), %d proc steps; parks: %s; runq high water %d, mailbox high water %d",
		st.Workers, st.TotalSteps(), cmp.Or(strings.Join(parks, ", "), "none"), st.RunqHiWater, st.MboxHiWater)
}

// ProfileAppendix builds the "where did the time go" table for one
// benchmark under one experiment: each communicating callsite of the ZPL
// source with the messages, bytes, communication overhead and blocking
// wait attributed to it across all processors.
func ProfileAppendix(r *Runner, benchName, expKey string) (*report.Table, error) {
	o, err := r.measure(cell{bench: benchName, exp: expKey, procs: r.Procs, instrumented: true})
	if err != nil {
		return nil, err
	}
	return ProfileTable(fmt.Sprintf("Where did the time go: %s under %s (all processors, virtual time)", benchName, expKey),
		schedNote(o.sched), o.profile), nil
}

// ProfileTable renders per-callsite profile rows under title and note (""
// for none): one row per plan transfer, attributed to the source position
// of its earliest use, with any callsites folded in by rr/cc listed
// alongside. zplrun -profile prints the same table.
func ProfileTable(title, note string, rows []rt.CallsiteProfile) *report.Table {
	t := &report.Table{
		Title:   title,
		Note:    note,
		Headers: []string{"callsite", "transfer", "hoisted", "SR calls", "messages", "KB", "comm ms", "wait ms", "also covers"},
	}
	for _, row := range rows {
		hoisted := ""
		if row.Hoisted {
			hoisted = "yes"
		}
		covers := make([]string, 0, len(row.Covers))
		for _, p := range row.Covers {
			covers = append(covers, p.String())
		}
		t.AddRow(row.Pos.String(), row.Label, hoisted, row.Calls, row.Messages,
			fmt.Sprintf("%.1f", float64(row.Bytes)/1024),
			fmt.Sprintf("%.3f", float64(row.Comm)/1e6),
			fmt.Sprintf("%.3f", float64(row.Wait)/1e6),
			strings.Join(covers, " "))
	}
	return t
}

// RunProfiles writes the profile appendix of every benchmark under the
// baseline and fully pipelined experiments, so the movement of wait time
// into overlapped communication is visible side by side. It is not part
// of RunAll: the figure and table outputs stay byte-identical whether or
// not profiling is ever requested.
func RunProfiles(w io.Writer, r *Runner) error {
	keys := []string{"baseline", "pl"}
	r.measureAll(r.gridCells(BenchNames(), keys, true)) //nolint:errcheck // surfaced on the ordered read
	for _, name := range BenchNames() {
		for _, key := range keys {
			t, err := ProfileAppendix(r, name, key)
			if err != nil {
				return err
			}
			t.Render(w)
		}
	}
	return nil
}
