package engine

import (
	"fmt"
	"strings"
)

// PlanInfo describes how a query executes without running it: the
// printable form of the physical plan the executor consumes, so the two
// cannot disagree.
type PlanInfo struct {
	Mode        string
	Shape       string // "aggregate", "window", "scan", "merge", "join"
	Series      []string
	Pages       int // time-relevant pages of every series the query reads
	PagesPruned int // of those, skipped from header statistics (Section V)
	Workers     int
	Jobs        int  // pipeline jobs (pages or slices) over the first series' unpruned pages
	Sliced      bool // any page split into slices
	Fused       bool // some job aggregates on encoded form (Section IV)
	FusedJobs   int  // how many do
	Pruning     bool // Section V rules active
	Windows     int  // sliding-window instances
	MergeRanges int  // time-range merge nodes (Figure 9)
}

// String renders the plan as an indented tree.
func (p *PlanInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s query [%s]\n", p.Shape, p.Mode)
	fmt.Fprintf(&b, "  series: %s\n", strings.Join(p.Series, ", "))
	fmt.Fprintf(&b, "  pages: %d  workers: %d  jobs: %d  sliced: %v\n",
		p.Pages, p.Workers, p.Jobs, p.Sliced)
	if p.Shape == shapeAggregate || p.Shape == shapeWindow {
		fmt.Fprintf(&b, "  fused decoders: %v  pruning: %v\n", p.Fused, p.Pruning)
		if p.PagesPruned > 0 || (p.Fused && p.FusedJobs < p.Jobs) {
			// The page statistics split the plan: say how.
			fmt.Fprintf(&b, "  pages pruned: %d  fused jobs: %d of %d\n", p.PagesPruned, p.FusedJobs, p.Jobs)
		}
	} else if p.PagesPruned > 0 {
		fmt.Fprintf(&b, "  pages pruned: %d\n", p.PagesPruned)
	}
	if p.Windows > 0 {
		fmt.Fprintf(&b, "  window instances: %d\n", p.Windows)
	}
	if p.MergeRanges > 0 {
		fmt.Fprintf(&b, "  merge ranges: %d\n", p.MergeRanges)
	}
	return b.String()
}
