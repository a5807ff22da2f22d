package engine

import (
	"fmt"
	"math"

	"etsqp/internal/sqlparse"
)

// executeRanged runs every row-producing shape over the plan's time-range
// merge nodes (Figure 9): the covered interval was cut at page
// boundaries, each range streams its series through batch cursors on an
// independent worker, and the per-range results combine in range order.
// A scan filters one cursor's rows. Merge is Q5, SELECT * FROM ts1 UNION
// ts2 ORDER BY TIME (Figure 9(a)). Join is Q4 (projection over join) and
// Q6 (natural join): join masks are produced within each shared time
// range (Figure 9(b)) and the merge node concatenates them (Equation 6).
// CORR over a join folds each range's matching pairs into its own Pearson
// sums, which the merge node adds up in range order.
func (e *Engine) executeRanged(p *plan, tr *Trace) (*Result, error) {
	limit, item := p.q.Limit, p.q.Items[0]
	col := newCollector(tr)
	col.mergeRanges.Add(int64(len(p.cuts)))
	var sums []pearson
	if p.corr() {
		sums = make([]pearson, len(p.cuts))
	}
	rows, err := e.runRanged(p.cuts, col, func(i int, a, b int64) ([]Row, error) {
		lc, err := e.newBatchCursor(p.series[0], a, b, col)
		if err != nil {
			return nil, err
		}
		var out []Row
		// Rows past the limit can never survive the final trim, so each
		// range stops decoding once it alone could satisfy it.
		more := func() bool { return limit <= 0 || len(out) < limit }
		if p.shape == shapeScan {
			err = filterCursor(lc, p.vp, col, func(t, v int64) bool {
				out = append(out, Row{Time: t, Values: []int64{v}})
				return more()
			})
			return out, err
		}
		rc, err := e.newBatchCursor(p.series[1], a, b, col)
		if err != nil {
			return nil, err
		}
		if p.shape == shapeMerge {
			err = mergeCursors(lc, rc, col, func(r Row) bool {
				out = append(out, r)
				return more()
			})
			return out, err
		}
		err = joinCursors(lc, rc, col, func(t, lv, rv int64) bool {
			switch {
			case !joinPredsMatch(p.vp, p.series, lv, rv):
				return true
			case sums != nil:
				sums[i].add(float64(lv), float64(rv))
				return true
			case item.Star:
				out = append(out, Row{Time: t, Values: []int64{lv, rv}})
			default:
				out = append(out, Row{Time: t, Values: []int64{lv + rv}})
			}
			return more()
		})
		return out, err
	})
	if err != nil {
		return nil, err
	}
	if sums != nil {
		var all pearson
		for i := range sums {
			all.merge(&sums[i])
		}
		r, err := all.corr()
		if err != nil {
			return nil, err
		}
		return &Result{Aggregates: map[string]float64{"CORR(A,B)": r}, Stats: col.finish()}, nil
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return &Result{Rows: rows, Stats: col.finish()}, nil
}

// joinPredsMatch applies qualified value predicates to a joined row.
func joinPredsMatch(vp []sqlparse.Pred, series []string, lv, rv int64) bool {
	for _, p := range vp {
		v := lv
		if p.Col.Series != "" && len(series) == 2 && p.Col.Series == series[1] {
			v = rv
		}
		if !p.Op.Eval(v, p.Value) {
			return false
		}
	}
	return true
}

// pearson holds the sums a Pearson correlation is evaluated from: the
// pair count n, Σa, Σb, Σa², Σb² and Σab over the joined rows.
type pearson struct{ n, sa, sb, saa, sbb, sab float64 }

func (s *pearson) add(a, b float64) { s.merge(&pearson{1, a, b, a * a, b * b, a * b}) }

func (s *pearson) merge(o *pearson) {
	s.n += o.n
	s.sa += o.sa
	s.sb += o.sb
	s.saa += o.saa
	s.sbb += o.sbb
	s.sab += o.sab
}

// corr evaluates the correlation coefficient from the sums.
func (s *pearson) corr() (float64, error) {
	n := s.n
	if n == 0 {
		return 0, fmt.Errorf("engine: CORR over empty join")
	}
	cov := s.sab/n - s.sa/n*s.sb/n
	va := s.saa/n - s.sa/n*s.sa/n
	vb := s.sbb/n - s.sb/n*s.sb/n
	if va <= 0 || vb <= 0 {
		return 0, fmt.Errorf("engine: CORR undefined for zero variance")
	}
	return cov / math.Sqrt(va*vb), nil
}
