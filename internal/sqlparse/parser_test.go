package sqlparse

import (
	"testing"

	"etsqp/internal/expr"
)

func TestParseQ1SlidingWindowSum(t *testing.T) {
	q, err := Parse("SELECT SUM(A) FROM root.sg.d1.velocity SW(0, 1000);")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 1 || q.Items[0].Agg != AggSum || q.Items[0].Col.Column != "A" {
		t.Fatalf("items = %+v", q.Items)
	}
	if len(q.Series) != 1 || q.Series[0] != "root.sg.d1.velocity" {
		t.Fatalf("series = %v", q.Series)
	}
	if q.Window == nil || q.Window.TMin != 0 || q.Window.DT != 1000 {
		t.Fatalf("window = %+v", q.Window)
	}
}

func TestParseQ2Avg(t *testing.T) {
	q, err := Parse("select avg(a) from ts sw(100, 50)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Agg != AggAvg || q.Window.TMin != 100 || q.Window.DT != 50 {
		t.Fatalf("%+v", q)
	}
}

func TestParseQ3Subquery(t *testing.T) {
	q, err := Parse("SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > 5);")
	if err != nil {
		t.Fatal(err)
	}
	if q.Sub == nil || len(q.Series) != 0 {
		t.Fatalf("sub = %+v", q.Sub)
	}
	if !q.Sub.Items[0].Star {
		t.Fatal("subquery must select *")
	}
	if len(q.Sub.Preds) != 1 || q.Sub.Preds[0].Op != expr.OpGT || q.Sub.Preds[0].Value != 5 {
		t.Fatalf("preds = %+v", q.Sub.Preds)
	}
}

func TestParseQ4JoinAdd(t *testing.T) {
	q, err := Parse("SELECT ts1.A+ts2.A FROM ts1, ts2;")
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Add == nil {
		t.Fatal("expected add projection")
	}
	add := *q.Items[0].Add
	if add[0].Series != "ts1" || add[1].Series != "ts2" || add[0].Column != "A" {
		t.Fatalf("add = %+v", add)
	}
	if len(q.Series) != 2 {
		t.Fatalf("series = %v", q.Series)
	}
}

func TestParseQ5Union(t *testing.T) {
	q, err := Parse("SELECT * FROM ts1 UNION ts2 ORDER BY TIME;")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Items[0].Star || q.UnionWith != "ts2" || !q.OrderByTime {
		t.Fatalf("%+v", q)
	}
}

func TestParseQ6NaturalJoin(t *testing.T) {
	q, err := Parse("SELECT * FROM ts1, ts2;")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 2 || !q.Items[0].Star {
		t.Fatalf("%+v", q)
	}
}

func TestParseTimeRange(t *testing.T) {
	q, err := Parse("SELECT AVG(A) FROM v WHERE TIME >= 180 AND TIME <= 300;")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %+v", q.Preds)
	}
	if !q.Preds[0].Col.IsTime() || q.Preds[0].Op != expr.OpGE || q.Preds[0].Value != 180 {
		t.Fatalf("pred 0 = %+v", q.Preds[0])
	}
	if q.Preds[1].Op != expr.OpLE || q.Preds[1].Value != 300 {
		t.Fatalf("pred 1 = %+v", q.Preds[1])
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	q, err := Parse("SELECT SUM(A) FROM ts WHERE A > -42")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Value != -42 {
		t.Fatalf("value = %d", q.Preds[0].Value)
	}
}

func TestParseValueAlias(t *testing.T) {
	q, err := Parse("SELECT MAX(VALUE) FROM ts")
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Col.Column != "A" {
		t.Fatalf("VALUE must alias A: %+v", q.Items[0])
	}
}

func TestParseAllAggs(t *testing.T) {
	for _, agg := range []string{"SUM", "AVG", "COUNT", "MIN", "MAX", "VAR"} {
		q, err := Parse("SELECT " + agg + "(A) FROM ts")
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if string(q.Items[0].Agg) != agg {
			t.Fatalf("%s parsed as %s", agg, q.Items[0].Agg)
		}
	}
}

func TestParseMultipleItems(t *testing.T) {
	q, err := Parse("SELECT MIN(A), MAX(A), COUNT(A) FROM ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 3 {
		t.Fatalf("items = %d", len(q.Items))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM ts",
		"SELECT SUM(A FROM ts",
		"SELECT SUM(A) ts",
		"SELECT SUM(A) FROM ts WHERE",
		"SELECT SUM(A) FROM ts WHERE A >",
		"SELECT SUM(A) FROM ts WHERE A ! 5",
		"SELECT SUM(A) FROM ts SW(1)",
		"SELECT SUM(A) FROM ts SW(1, 0)",
		"SELECT SUM(A) FROM ts extra",
		"SELECT SUM(B) FROM ts",             // unknown column
		"SELECT SUM(A) FROM ts WHERE A > x", // non-numeric literal
		"SELECT SUM(A) FROM (SELECT * FROM ts",
		"SELECT * FROM ts ORDER BY A",
		"SELECT * FROM ts. ",
		"SELECT @ FROM ts",
		"SELECT SUM(A) FROM ts WHERE A - 5",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseWindowForms(t *testing.T) {
	// SW with explicit slide.
	q, err := Parse("SELECT SUM(A) FROM ts SW(100, 50, 10)")
	if err != nil {
		t.Fatal(err)
	}
	w := q.Window
	if w == nil || !w.HasTMin || w.TMin != 100 || w.DT != 50 || w.Slide != 10 || w.Hop() != 10 {
		t.Fatalf("window = %+v", w)
	}
	// SW slide equal to width canonicalizes to tumbling (Slide = 0).
	q, err = Parse("SELECT SUM(A) FROM ts SW(100, 50, 50)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Window.Slide != 0 || q.Window.Hop() != 50 {
		t.Fatalf("window = %+v", q.Window)
	}
	// GROUP BY TIME: anchor inferred, tumbling by default.
	q, err = Parse("SELECT AVG(A) FROM ts WHERE TIME >= 10 AND TIME <= 99 GROUP BY TIME(25)")
	if err != nil {
		t.Fatal(err)
	}
	w = q.Window
	if w == nil || w.HasTMin || w.TMin != 0 || w.DT != 25 || w.Slide != 0 || w.Hop() != 25 {
		t.Fatalf("window = %+v", w)
	}
	// GROUP BY TIME with hop.
	q, err = Parse("select count(a) from ts group by time(30, 7) limit 4")
	if err != nil {
		t.Fatal(err)
	}
	w = q.Window
	if w == nil || w.HasTMin || w.DT != 30 || w.Slide != 7 || q.Limit != 4 {
		t.Fatalf("%+v", q)
	}
}

func TestParseWindowErrors(t *testing.T) {
	bad := []string{
		"SELECT SUM(A) FROM ts SW(0, -5)",
		"SELECT SUM(A) FROM ts SW(0, 10, 0)",
		"SELECT SUM(A) FROM ts SW(0, 10, -3)",
		"SELECT SUM(A) FROM ts SW(0, 10,)",
		"SELECT SUM(A) FROM ts GROUP BY TIME",
		"SELECT SUM(A) FROM ts GROUP BY TIME()",
		"SELECT SUM(A) FROM ts GROUP BY TIME(0)",
		"SELECT SUM(A) FROM ts GROUP BY TIME(10, 0)",
		"SELECT SUM(A) FROM ts GROUP BY TIME(10, -1)",
		"SELECT SUM(A) FROM ts GROUP TIME(10)",
		"SELECT SUM(A) FROM ts GROUP BY A",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseQualifiedPredicate(t *testing.T) {
	q, err := Parse("SELECT * FROM ts1, ts2 WHERE ts1.A > 10")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Col.Series != "ts1" {
		t.Fatalf("pred = %+v", q.Preds[0])
	}
}

func TestParseDottedSeriesWithColumnTail(t *testing.T) {
	// A trailing .A turns a dotted name into a column reference.
	q, err := Parse("SELECT SUM(root.sg.d1.velocity.A) FROM root.sg.d1.velocity")
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Col.Series != "root.sg.d1.velocity" {
		t.Fatalf("col = %+v", q.Items[0].Col)
	}
}

func TestParseLimit(t *testing.T) {
	q, err := Parse("SELECT * FROM ts WHERE A > 5 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 10 {
		t.Fatalf("limit = %d", q.Limit)
	}
	q2, err := Parse("SELECT * FROM ts1 UNION ts2 ORDER BY TIME LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Limit != 3 || !q2.OrderByTime {
		t.Fatalf("%+v", q2)
	}
	for _, bad := range []string{"SELECT * FROM ts LIMIT", "SELECT * FROM ts LIMIT 0", "SELECT * FROM ts LIMIT x"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseCorr(t *testing.T) {
	q, err := Parse("SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Agg != AggCorr || q.Items[0].Col2 == nil || q.Items[0].Col2.Series != "ts2" {
		t.Fatalf("%+v", q.Items[0])
	}
	for _, bad := range []string{
		"SELECT CORR(A) FROM ts1, ts2",
		"SELECT SUM(A, A) FROM ts",
		"SELECT CORR(A, ) FROM ts1, ts2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// TestParseProbeAllocs pins the allocations of parsing the two probe
// shapes the selective_probe benchmark sends: a time-range aggregate and
// a rare-value filter. The lexer sizes its token slice once and slices
// symbols out of the source, so what remains is the Query and its slices.
func TestParseProbeAllocs(t *testing.T) {
	for _, c := range []struct {
		sql string
		max float64
	}{
		{"SELECT AVG(A) FROM trend WHERE TIME >= 1700000012345678 AND TIME <= 1700000099999999", 9},
		{"SELECT MIN(A), MAX(A) FROM trend WHERE TIME >= 1700000012345678 AND TIME <= 1700000099999999", 11},
		{"SELECT COUNT(A), SUM(A) FROM trend WHERE A > 123456789", 9},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("Parse(%q): %v allocs, want <= %v", c.sql, got, c.max)
		}
	}
}
