package cli

import (
	"bytes"
	"testing"

	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// rowStore holds two short series on different grids, cut into pages of
// four points so row results cross page and range boundaries: ts1 every
// 10, ts2 every 15, aligned every 30.
func rowStore(t *testing.T) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	var t1, v1, t2, v2 []int64
	for i := int64(1); i <= 12; i++ {
		t1, v1 = append(t1, 10*i), append(v1, i*i-20)
	}
	for i := int64(1); i <= 8; i++ {
		t2, v2 = append(t2, 15*i), append(v2, 100-7*i)
	}
	opts := storage.Options{PageSize: 4}
	if err := st.Append("ts1", t1, v1, opts); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("ts2", t2, v2, opts); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRenderRowsGolden pins the shell's row output byte for byte: a
// filtered scan, a UNION with a missing side on either hand
// (expr.NullValue), a * join, a ts1.A + ts2.A projection, and the
// maxRows cap.
func TestRenderRowsGolden(t *testing.T) {
	eng := engine.New(rowStore(t), engine.ModeETSQP)
	eng.Workers = 2
	cases := []struct {
		sql     string
		maxRows int
		want    string
	}{
		{"SELECT * FROM ts1 WHERE A > 0", 0,
			"  50\t[5]\n" +
				"  60\t[16]\n" +
				"  70\t[29]\n" +
				"  80\t[44]\n" +
				"  90\t[61]\n" +
				"  100\t[80]\n" +
				"  110\t[101]\n" +
				"  120\t[124]\n" +
				"  (3 pages, 0 pruned, 0 jobs, 12 tuples)\n"},
		{"SELECT * FROM ts1 UNION ts2 ORDER BY TIME", 0,
			"  10\t[-19 -4611686018427387904]\n" +
				"  15\t[-4611686018427387904 93]\n" +
				"  20\t[-16 -4611686018427387904]\n" +
				"  30\t[-11 86]\n" +
				"  40\t[-4 -4611686018427387904]\n" +
				"  45\t[-4611686018427387904 79]\n" +
				"  50\t[5 -4611686018427387904]\n" +
				"  60\t[16 72]\n" +
				"  70\t[29 -4611686018427387904]\n" +
				"  75\t[-4611686018427387904 65]\n" +
				"  80\t[44 -4611686018427387904]\n" +
				"  90\t[61 58]\n" +
				"  100\t[80 -4611686018427387904]\n" +
				"  105\t[-4611686018427387904 51]\n" +
				"  110\t[101 -4611686018427387904]\n" +
				"  120\t[124 44]\n" +
				"  (6 pages, 0 pruned, 0 jobs, 24 tuples)\n"},
		{"SELECT * FROM ts1, ts2", 0,
			"  30\t[-11 86]\n" +
				"  60\t[16 72]\n" +
				"  90\t[61 58]\n" +
				"  120\t[124 44]\n" +
				"  (6 pages, 0 pruned, 0 jobs, 24 tuples)\n"},
		{"SELECT ts1.A + ts2.A FROM ts1, ts2", 0,
			"  30\t[75]\n" +
				"  60\t[88]\n" +
				"  90\t[119]\n" +
				"  120\t[168]\n" +
				"  (6 pages, 0 pruned, 0 jobs, 24 tuples)\n"},
		{"SELECT * FROM ts1 UNION ts2 ORDER BY TIME", 3,
			"  10\t[-19 -4611686018427387904]\n" +
				"  15\t[-4611686018427387904 93]\n" +
				"  20\t[-16 -4611686018427387904]\n" +
				"  ... 13 more rows\n" +
				"  (6 pages, 0 pruned, 0 jobs, 24 tuples)\n"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := Execute(&buf, eng, c.sql, c.maxRows); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := buf.String(); got != c.want {
			t.Errorf("%s (maxRows %d):\ngot:\n%s\nwant:\n%s", c.sql, c.maxRows, got, c.want)
		}
	}
}
