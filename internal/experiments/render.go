package experiments

import (
	"fmt"
	"strings"
)

// Rendering helpers: plain-text tables mirroring the paper's tables and the
// data series behind its figures.

func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// RenderTable51 renders the Table 5.1 comparison.
func RenderTable51(rows []Table51Row) string {
	header := []string{"prop", "n", "states", "total", "outgoing", "self", "paper(total/out/self)", "match"}
	var body [][]string
	for _, r := range rows {
		match := ""
		if r.Total == r.PaperTot && r.Outgoing == r.PaperOut && r.Self == r.PaperSelf {
			match = "exact"
		}
		body = append(body, []string{
			r.Property, fmt.Sprint(r.N), fmt.Sprint(r.States),
			fmt.Sprint(r.Total), fmt.Sprint(r.Outgoing), fmt.Sprint(r.Self),
			fmt.Sprintf("%d/%d/%d", r.PaperTot, r.PaperOut, r.PaperSelf),
			match,
		})
	}
	return renderTable(header, body)
}

// RenderCells renders a sweep as the data series behind Figs. 5.4–5.8.
func RenderCells(cells []*Cell) string {
	header := []string{"prop", "n", "events", "messages", "log10(ev)", "log10(msg)", "globalviews", "delayedEv", "delay%/GV", "knowPeak", "verdicts"}
	var body [][]string
	for _, c := range cells {
		body = append(body, []string{
			c.Property, fmt.Sprint(c.N),
			fmt.Sprintf("%.1f", c.Events), fmt.Sprintf("%.1f", c.Messages),
			fmt.Sprintf("%.2f", Log10(c.Events)), fmt.Sprintf("%.2f", Log10(c.Messages)),
			fmt.Sprintf("%.1f", c.GlobalViews), fmt.Sprintf("%.2f", c.DelayedEvents),
			fmt.Sprintf("%.3f", c.DelayPct), fmt.Sprintf("%.1f", c.KnowledgePeak), c.Verdicts,
		})
	}
	return renderTable(header, body)
}

// RenderOracleCells renders the oracle-cost sweep.
func RenderOracleCells(cells []*OracleCell) string {
	header := []string{"prop", "n", "arity", "support", "events", "cuts", "wall", "events/s", "verdicts"}
	var body [][]string
	for _, c := range cells {
		body = append(body, []string{
			c.Property, fmt.Sprint(c.N), fmt.Sprint(c.Arity), fmt.Sprint(c.Support),
			fmt.Sprintf("%.1f", c.Events), fmt.Sprintf("%.1f", c.Cuts),
			fmt.Sprintf("%.3fs", c.WallSeconds), fmt.Sprintf("%.0f", c.EventsPerSec),
			c.Verdicts,
		})
	}
	return renderTable(header, body)
}

// RenderCommFreq renders the Fig. 5.9 sweep.
func RenderCommFreq(cells []*CommFreqCell) string {
	header := []string{"config", "events", "messages", "log10(msg)", "delayedEv", "delay%/GV", "globalviews"}
	var body [][]string
	for _, c := range cells {
		body = append(body, []string{
			c.Label,
			fmt.Sprintf("%.1f", c.Events), fmt.Sprintf("%.1f", c.Messages),
			fmt.Sprintf("%.2f", Log10(c.Messages)),
			fmt.Sprintf("%.2f", c.DelayedEvents), fmt.Sprintf("%.3f", c.DelayPct),
			fmt.Sprintf("%.1f", c.GlobalViews),
		})
	}
	return renderTable(header, body)
}

// RenderBaselines renders the monitoring-configuration ablation.
func RenderBaselines(rows []*BaselineRow) string {
	header := []string{"prop", "n", "events", "dec msgs", "repl msgs", "central msgs", "dec GVs", "central cuts", "verdicts agree"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Property, fmt.Sprint(r.N), fmt.Sprint(r.Events),
			fmt.Sprint(r.DecMsgs), fmt.Sprint(r.RepMsgs), fmt.Sprint(r.CentralMsgs),
			fmt.Sprint(r.DecGVs), fmt.Sprint(r.CentralCuts), fmt.Sprint(r.Agree),
		})
	}
	return renderTable(header, body)
}

// RenderEngineCells renders the engine throughput sweep with its baseline
// header (the BENCH_engine.json document in table form).
func RenderEngineCells(doc *EngineBench) string {
	header := []string{"workload", "procs", "events", "reps", "events/s", "ns/event", "B/event", "allocs/event", "verdicts"}
	var body [][]string
	for _, c := range doc.Cells {
		body = append(body, []string{
			c.Workload, fmt.Sprint(c.GoMax), fmt.Sprint(c.Events), fmt.Sprint(c.Reps),
			fmt.Sprintf("%.0f", c.EventsPerSec), fmt.Sprintf("%.0f", c.NsPerEvent),
			fmt.Sprintf("%.0f", c.BytesPerEvent), fmt.Sprintf("%.2f", c.AllocsPerEvent),
			c.Verdicts,
		})
	}
	twoCore := "not measured: the machine has one CPU"
	if doc.TwoCoreRatioN16Ring > 0 {
		twoCore = fmt.Sprintf("%.2f", doc.TwoCoreRatioN16Ring)
	}
	return fmt.Sprintf("baseline %s: %.0f events/s (ring/n=16) → speedup %.1fx; ring/n=16 at 2 procs ÷ at 1 proc: %s\n%s",
		doc.BaselineCommit, doc.BaselineEventsPerSec, doc.SpeedupN16Ring, twoCore,
		renderTable(header, body))
}
