package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// TestExactMoments: VAR and CORR are evaluated from exact integer moments
// and rounded once, so every mode, worker count and slicing, repeated,
// must give one answer, bit for bit the math/big oracle's. The series are
// walks near 1e9 and 2^40, where float sums of squares cancel to noise;
// values alternating between the int64 edges, where Σv stays in int64 but
// Σv² passes 2^128; and series at MaxInt64 and MinInt64, whose Σv leaves
// int64, so that every run must report ErrOverflow.
func TestExactMoments(t *testing.T) {
	const n, pageSize, repeats = 20_000, 2048, 8
	rng := rand.New(rand.NewSource(36))
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 10
	}
	walk := func(base int64) []int64 {
		vals := make([]int64, n)
		v := base
		for i := range vals {
			v += rng.Int63n(2001) - 1000
			vals[i] = v
		}
		return vals
	}
	// off is a walk's distance from its start: small and non-negative.
	off := func() []int64 {
		vals := walk(0)
		for i, v := range vals {
			vals[i] = max(v, -v)
		}
		return vals
	}
	// edges pairs each value near MaxInt64 with its negation, so every
	// prefix of whole pairs sums to 0: Σv stays in int64 however the
	// engine groups the pages.
	edges := func() []int64 {
		vals := off()
		for i := 0; i+1 < n; i += 2 {
			vals[i] = math.MaxInt64 - vals[i]
			vals[i+1] = -vals[i]
		}
		return vals
	}
	top, bottom := off(), off()
	for i := range top {
		top[i], bottom[i] = math.MaxInt64-top[i], math.MinInt64+bottom[i]
	}
	cases := []struct {
		name string
		a, b []int64
	}{
		{"near 1e9", walk(1e9), walk(1e9)},
		{"near 2^40", walk(1 << 40), walk(1 << 40)},
		{"alternating int64 edges", edges(), edges()},
		{"at MaxInt64 and MinInt64", top, bottom},
	}

	span := ts[n-1] - ts[0] + 1
	variance := func(vals []int64) string {
		w := ScalarWindowed(ts, vals, ts[0], span, span, ts[0])[0]
		if w.Overflow {
			return "ErrOverflow"
		}
		return fmt.Sprint(wantWindowValue("VAR", w))
	}
	for _, c := range cases {
		pairs := make([]JoinedRow, n)
		for i := range pairs {
			pairs[i] = JoinedRow{Time: ts[i], L: c.a[i], R: c.b[i]}
		}
		corr := "ErrOverflow"
		if r, ok, overflow := exactCorr(pairs); !overflow {
			if !ok {
				t.Fatalf("%s: the oracle has no correlation", c.name)
			}
			corr = fmt.Sprint(r)
		}
		queries := []struct{ sql, key, want string }{
			{"SELECT VAR(A) FROM ts1", "VAR(A)", variance(c.a)},
			{"SELECT VAR(A) FROM ts2", "VAR(A)", variance(c.b)},
			{"SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2", "CORR(A,B)", corr},
		}
		answers := make([]map[string]int, len(queries))
		for i := range answers {
			answers[i] = map[string]int{}
		}
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune,
			engine.ModeSerial, engine.ModeSBoost, engine.ModeFastLanes} {
			opts := storage.Options{PageSize: pageSize}
			if mode == engine.ModeFastLanes {
				opts.ValueCodec = "fastlanes"
			}
			st := storage.NewStore()
			for _, s := range []struct {
				name string
				vals []int64
			}{{"ts1", c.a}, {"ts2", c.b}} {
				if err := st.Append(s.name, ts, s.vals, opts); err != nil {
					t.Fatal(err)
				}
			}
			e := engine.New(st, mode)
			for _, workers := range []int{1, 2, 4} {
				for _, fs := range []int{0, 3} {
					e.Workers, e.ForceSlices = workers, fs
					for range repeats {
						for i, q := range queries {
							res, err := e.ExecuteSQL(q.sql)
							switch {
							case errors.Is(err, engine.ErrOverflow):
								answers[i]["ErrOverflow"]++
							case err != nil:
								answers[i][err.Error()]++
							default:
								answers[i][fmt.Sprint(res.Aggregates[q.key])]++
							}
						}
					}
				}
			}
		}
		for i, q := range queries {
			if len(answers[i]) != 1 || answers[i][q.want] == 0 {
				t.Errorf("%s: %q gave %d answers %v, oracle %s", c.name, q.sql, len(answers[i]), answers[i], q.want)
			}
		}
	}
}

// exactCorr is the Pearson correlation of joined pairs from exact
// big-integer sums: r² = (nΣab − ΣaΣb)² / ((nΣa² − (Σa)²)(nΣb² − (Σb)²))
// as a rational, its square root at 1024 bits, rounded once. ok is false
// over an empty join or a side with no variance; overflow reports a Σa or
// Σb outside int64, which the engine reports as the Section VI-C error.
func exactCorr(rows []JoinedRow) (r float64, ok, overflow bool) {
	var sa, sb, saa, sbb, sab big.Int
	for _, row := range rows {
		a, b := big.NewInt(row.L), big.NewInt(row.R)
		sa.Add(&sa, a)
		sb.Add(&sb, b)
		sab.Add(&sab, new(big.Int).Mul(a, b))
		saa.Add(&saa, a.Mul(a, a))
		sbb.Add(&sbb, b.Mul(b, b))
	}
	if !sa.IsInt64() || !sb.IsInt64() {
		return 0, false, true
	}
	n := big.NewInt(int64(len(rows)))
	spread := func(s, ss *big.Int) *big.Int {
		d := new(big.Int).Mul(n, ss)
		return d.Sub(d, new(big.Int).Mul(s, s))
	}
	da, db := spread(&sa, &saa), spread(&sb, &sbb)
	if da.Sign() == 0 || db.Sign() == 0 {
		return 0, false, false
	}
	num := new(big.Int).Mul(n, &sab)
	num.Sub(num, new(big.Int).Mul(&sa, &sb))
	r2 := new(big.Rat).SetFrac(new(big.Int).Mul(num, num), da.Mul(da, db))
	f := new(big.Float).SetPrec(1024).SetRat(r2)
	if f.Sqrt(f); num.Sign() < 0 {
		f.Neg(f)
	}
	r, _ = f.Float64()
	return r, true, false
}
