package engine

import (
	"fmt"
	"math/big"

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
// CORR over a join folds each range's matching pairs into its own exact
// moments, which the merge node adds up.
func (e *Engine) executeRanged(p *plan, tr *Trace) (*Result, error) {
	limit, item := p.q.Limit, p.q.Items[0]
	col := newCollector(tr)
	col.mergeRanges.Add(int64(len(p.cuts)))
	var sums []moments
	if p.corr() {
		sums = make([]moments, len(p.cuts))
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
				sums[i].add(lv, rv)
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
		for i := 1; i < len(sums); i++ {
			sums[0].merge(&sums[i])
		}
		r, err := sums[0].corr()
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

// moments holds the exact sums a Pearson correlation is evaluated from:
// each side's count, Σ and Σ² (the moments VAR uses), and Σa·b as the
// sums of the products of like (ab[0]) and unlike (ab[1]) signs.
type moments struct {
	a, b partialAgg
	ab   [2]wide
}

func (s *moments) add(a, b int64) {
	s.a.addValue(a)
	s.b.addValue(b)
	s.ab[uint64(a^b)>>63].addMul(a, b)
}

func (s *moments) merge(o *moments) {
	s.a.merge(&o.a)
	s.b.merge(&o.b)
	s.ab[0].add(o.ab[0])
	s.ab[1].add(o.ab[1])
}

// corr evaluates r = (n·Σab − Σa·Σb) / √(spread(a)·spread(b)): exact but
// for a root and a quotient at 512 bits, which hold the product of two
// spreads (each below 2^63·2^189), and rounded once, so |r| <= 1. It is
// the Section VI-C error when the total Σa or Σb leaves int64.
func (s *moments) corr() (float64, error) {
	_, okA := s.a.sum.Int64()
	if _, okB := s.b.sum.Int64(); !okA || !okB {
		return 0, fmt.Errorf("engine: CORR overflow (Section VI-C check): %w", ErrOverflow)
	}
	if s.a.count == 0 {
		return 0, fmt.Errorf("engine: CORR over empty join")
	}
	da, db := s.a.spread(), s.b.spread()
	if da.Sign() == 0 || db.Sign() == 0 {
		return 0, fmt.Errorf("engine: CORR undefined for zero variance")
	}
	num := new(big.Int).Sub(s.ab[0].big(), s.ab[1].big())
	num.Mul(num, big.NewInt(s.a.count)).Sub(num, new(big.Int).Mul(s.a.sum.Big(), s.b.sum.Big()))
	den := new(big.Float).SetPrec(512).SetInt(da.Mul(da, db))
	r := new(big.Float).SetPrec(512).SetInt(num)
	f, _ := r.Quo(r, den.Sqrt(den)).Float64()
	return f, nil
}
