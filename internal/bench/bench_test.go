package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// small keeps the in-package tests quick; etsqp-bench runs the full-size
// sweeps.
var small = Config{Rows: 8000, Seed: 7, Workers: 2, PageSize: 1024}

// TestFig10Shape checks Figure 10's measurements and, from exact
// counters on every dataset, two work shapes. Section IV behind Q1
// (EXPERIMENTS.md, Figure 14(a) "Shape check"): ETSQP answers the
// windowed SUM on encoded form — every covered row fused, none decoded —
// and Serial decodes every one. Section V behind Q3: ETSQP-prune decodes
// no more values than ETSQP, and prunes pages wherever Proposition 5's
// bounds separate pages from the median — on Atm, Clim, Gas and Time,
// while Sine and TPCH straddle it on every page and prune none.
func TestFig10Shape(t *testing.T) {
	ms, err := Fig10(small)
	if err != nil {
		t.Fatal(err)
	}
	want := len(DatasetLabels) * len(Approaches) * len(BenchQueries)
	if len(ms) != want {
		t.Fatalf("measurements = %d want %d", len(ms), want)
	}
	runs := map[string]Measurement{} // by series and workload
	checked := 0
	for _, m := range ms {
		if m.Throughput <= 0 {
			t.Fatalf("%s/%s: throughput %f", m.Series, m.X, m.Throughput)
		}
		runs[m.Series+" "+m.X] = m
		if !strings.HasSuffix(m.X, "/Q1") {
			continue
		}
		rows, fused, decoded := float64(small.Rows), m.Extra["values_fused"], m.Extra["values_decoded"]
		switch m.Series {
		case engine.ModeETSQP.String():
			if fused != rows || decoded != 0 {
				t.Errorf("%s/%s: fused=%v decoded=%v, want fused=%v decoded=0", m.Series, m.X, fused, decoded, rows)
			}
		case engine.ModeSerial.String():
			if fused != 0 || decoded != rows {
				t.Errorf("%s/%s: fused=%v decoded=%v, want fused=0 decoded=%v", m.Series, m.X, fused, decoded, rows)
			}
		default:
			continue
		}
		checked++
	}
	if checked != 2*len(DatasetLabels) {
		t.Errorf("checked %d ETSQP/Serial Q1 runs, want %d", checked, 2*len(DatasetLabels))
	}
	prunes := map[string]bool{"Atm": true, "Clim": true, "Gas": true, "Time": true, "Sine": false, "TPCH": false}
	for _, label := range DatasetLabels {
		etsqp, prune := runs[engine.ModeETSQP.String()+" "+label+"/Q3"], runs[engine.ModeETSQPPrune.String()+" "+label+"/Q3"]
		decoded, prunedDecoded := etsqp.Extra["values_decoded"], prune.Extra["values_decoded"]
		pruned := prune.Extra["pages_pruned"]
		t.Logf("%s/Q3: values decoded ETSQP %v, ETSQP-prune %v; %v pages pruned", label, decoded, prunedDecoded, pruned)
		if decoded <= 0 || prunedDecoded > decoded {
			t.Errorf("%s/Q3: ETSQP-prune decoded %v values, ETSQP %v; want at most ETSQP's, and ETSQP > 0", label, prunedDecoded, decoded)
		}
		if want, ok := prunes[label]; !ok || want != (pruned > 0) {
			t.Errorf("%s/Q3: ETSQP-prune pruned %v pages; want pruning %v", label, pruned, want)
		}
	}
}

// TestFig10RowShapeAllocs bounds the allocations of Figure 10's
// row-returning queries (Q4 projection over a join, Q5 UNION, Q6 natural
// join) on Atm at 60 000 rows: results are columns sized once per time
// range, so a query allocates per page and per range, never per row.
func TestFig10RowShapeAllocs(t *testing.T) {
	cfg := Config{Rows: 60_000, Workers: 2}.WithDefaults()
	w, err := buildWorkload(cfg, "Atm", codecForMode(engine.ModeETSQP))
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(cfg, w, engine.ModeETSQP)
	for _, qid := range []string{"Q4", "Q5", "Q6"} {
		sql, err := w.queryFor(qid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := e.ExecuteSQL(sql); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/query", qid, n)
		if n > 100 {
			t.Errorf("%s: %.0f allocs per query, want <= 100", qid, n)
		}
	}
}

// TestFigWindowShape checks the work shape of Section VI's G_sw behind
// FigWindow, from exact counters: at every overlap ETSQP fills the
// segment sums on encoded form — every row fused, none decoded — Serial
// decodes every row, and more overlap cuts more windows.
func TestFigWindowShape(t *testing.T) {
	overlaps := []int{1, 2, 4, 8}
	ms, err := FigWindow(small, overlaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*len(overlaps) {
		t.Fatalf("measurements = %d", len(ms))
	}
	rows := float64(small.Rows)
	windows := map[string][]float64{}
	for _, m := range ms {
		fused, decoded := m.Extra["values_fused"], m.Extra["values_decoded"]
		switch m.Series {
		case engine.ModeETSQP.String():
			if fused != rows || decoded != 0 {
				t.Errorf("%s/%s: fused=%v decoded=%v, want fused=%v decoded=0", m.Series, m.X, fused, decoded, rows)
			}
		case engine.ModeSerial.String():
			if fused != 0 || decoded != rows {
				t.Errorf("%s/%s: fused=%v decoded=%v, want fused=0 decoded=%v", m.Series, m.X, fused, decoded, rows)
			}
		}
		windows[m.Series] = append(windows[m.Series], m.Extra["windows"])
	}
	for series, ws := range windows {
		for i := 1; i < len(ws); i++ {
			if ws[i] <= ws[i-1] {
				t.Errorf("%s: %v windows at overlap=%d, %v at overlap=%d; want more", series, ws[i], overlaps[i], ws[i-1], overlaps[i-1])
			}
		}
	}
}

// TestFig11Shape checks the work shape behind Figure 11's scaling
// (EXPERIMENTS.md, Figure 11 "Shape check"), from exact counters:
// ETSQP deals one job per page whenever pages are at least threads
// (Section III-C), while SBoost cuts every page into one slice per
// thread and pays the Figure 8 prefix dependency pages × threads times.
func TestFig11Shape(t *testing.T) {
	threads := []int{1, 2, 8}
	ms, err := Fig11(small, threads)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*4*len(threads) {
		t.Fatalf("measurements = %d", len(ms))
	}
	checked := 0
	for _, m := range ms {
		_, thStr, _ := strings.Cut(m.X, "threads=")
		th, err := strconv.Atoi(thStr)
		if err != nil {
			t.Fatalf("%s/%s: no thread count", m.Series, m.X)
		}
		pages, slices := m.Extra["pages"], m.Extra["slices"]
		var want float64
		switch m.Series {
		case engine.ModeETSQP.String():
			if pages < float64(th) {
				continue
			}
			want = pages
		case engine.ModeSBoost.String():
			want = pages * float64(th)
		default:
			continue
		}
		if pages < 1 || slices != want {
			t.Errorf("%s/%s: %v slices over %v pages, want %v", m.Series, m.X, slices, pages, want)
		}
		checked++
	}
	if checked != 2*2*len(threads) {
		t.Errorf("checked %d ETSQP/SBoost runs, want %d", checked, 2*2*len(threads))
	}
}

func TestFig12DeltaThreads(t *testing.T) {
	ms, err := Fig12DeltaThreads(small, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*3*2 {
		t.Fatalf("measurements = %d", len(ms))
	}
}

func TestFig12RunLength(t *testing.T) {
	ms, err := Fig12RunLength(small, []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*3 {
		t.Fatalf("measurements = %d", len(ms))
	}
	// ETSQP sums the RLBE runs on encoded form at every run length, and
	// longer runs encode in fewer bytes: at runlen=64 it reads at most an
	// eighth of what it reads at runlen=1.
	scanned := map[string]float64{}
	for _, m := range ms {
		if m.Series != engine.ModeETSQP.String() {
			continue
		}
		if d := m.Extra["values_decoded"]; d != 0 {
			t.Errorf("ETSQP/%s: %v values decoded, want 0", m.X, d)
		}
		scanned[m.X] = m.Extra["bytes_scanned"]
	}
	one, long := scanned["runlen=1"], scanned["runlen=64"]
	t.Logf("ETSQP scanned %v B at runlen=1, %v B at runlen=64", one, long)
	if one <= 0 || long > one/8 {
		t.Errorf("ETSQP scanned %v B at runlen=64, %v B at runlen=1; want at most 1/8", long, one)
	}
}

func TestFig12PackWidth(t *testing.T) {
	ms, err := Fig12PackWidth(small, []uint{6, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*4 {
		t.Fatalf("measurements = %d", len(ms))
	}
	// Narrow widths give tight Proposition 5 bounds: width 6 must prune,
	// and at least as much as width 20 (looser bounds may prune nothing).
	pruned := map[string]float64{}
	for _, m := range ms {
		if m.Series == engine.ModeETSQPPrune.String() {
			pruned[m.X] = m.Extra["pages_pruned"]*float64(small.Rows/2) + m.Extra["rows_pruned"]
		}
	}
	if pruned["width=6"] == 0 {
		t.Fatal("width 6 must prune")
	}
	if pruned["width=6"] < pruned["width=20"] {
		t.Fatalf("narrow width pruned less (%v) than wide (%v)", pruned["width=6"], pruned["width=20"])
	}
}

func TestFig13Shape(t *testing.T) {
	ms, err := Fig13(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(DatasetLabels)*4*2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		if m.Extra["encoded_bytes"] <= 0 {
			t.Fatalf("%s: no footprint", m.Series)
		}
	}
}

func TestFig14Fusion(t *testing.T) {
	ms, err := Fig14Fusion(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("measurements = %d", len(ms))
	}
	// That fusing all three decoders beats full decoding is a wall-clock
	// ordering: TestTimeShapes asserts it.
}

// TestTimeShapes asserts the wall-clock orderings among the paper's
// shapes, each reading the best of 30 runs: Figure 14(a)'s fuse=3 above
// fuse=1, and on every dataset of Figure 10 ETSQP at or above SBoost on
// Q1 and Q2 and at or above Serial on Q1-Q3, and ETSQP-prune at least
// twice Serial on Q3; and Figure 11's SBoost below its 2-worker peak at
// 8 workers on Time and Sine. A shared host's clock can flake, so
// it runs only when ETSQP_TIME_SHAPES is set, as the CI step "time
// shapes" does:
//
//	ETSQP_TIME_SHAPES=1 go test -run TestTimeShapes -v ./internal/bench
func TestTimeShapes(t *testing.T) {
	if os.Getenv("ETSQP_TIME_SHAPES") == "" {
		t.Skip("wall-clock shapes: set ETSQP_TIME_SHAPES=1")
	}
	cfg := Config{Rows: 100_000, Seed: 42, Workers: 2, PageSize: 4096, Reps: 30}
	// Each variant's kernel runs a fraction of a millisecond, so its 30
	// reps fit in one slow phase of a shared host: keep the best of five
	// figure runs.
	var fuse3, fuse1 float64
	for range 5 {
		ms, err := Fig14Fusion(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fuse3, fuse1 = max(fuse3, ms[0].Throughput), max(fuse1, ms[2].Throughput)
	}
	t.Logf("fig14a: fuse=3 %.1f MT/s, fuse=1 %.1f MT/s", fuse3, fuse1)
	if fuse3 <= fuse1 {
		t.Errorf("fig14a: fuse=3 (%.1f MT/s) should beat fuse=1 (%.1f MT/s)", fuse3, fuse1)
	}
	for _, label := range DatasetLabels {
		w, err := buildWorkload(cfg, label, storage.DefaultValueCodec)
		if err != nil {
			t.Fatal(err)
		}
		for _, qid := range []string{"Q1", "Q2", "Q3"} {
			sql, err := w.queryFor(qid)
			if err != nil {
				t.Fatal(err)
			}
			var mt [4]float64
			modes := []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune, engine.ModeSerial, engine.ModeSBoost}
			for i, mode := range modes {
				m, err := run(cfg, engineFor(cfg, w, mode), sql)
				if err != nil {
					t.Fatal(err)
				}
				mt[i] = m.Throughput
			}
			etsqp, prune, serial, sboost := mt[0], mt[1], mt[2], mt[3]
			t.Logf("fig10 %s/%s: ETSQP %.1f, ETSQP-prune %.1f, Serial %.1f, SBoost %.1f MT/s",
				label, qid, etsqp, prune, serial, sboost)
			if qid != "Q3" && etsqp < sboost {
				t.Errorf("fig10 %s/%s: ETSQP %.1f MT/s below SBoost %.1f MT/s", label, qid, etsqp, sboost)
			}
			if etsqp < serial {
				t.Errorf("fig10 %s/%s: ETSQP %.1f MT/s below Serial %.1f MT/s", label, qid, etsqp, serial)
			}
			if qid == "Q3" && prune < 2*serial {
				t.Errorf("fig10 %s/%s: ETSQP-prune %.1f MT/s below twice Serial %.1f MT/s", label, qid, prune, serial)
			}
		}
	}
	// Figure 11: SBoost slices every page once per worker, so past the
	// host's cores its Q1 throughput falls below its 2-worker peak.
	for _, label := range []string{"Time", "Sine"} {
		w, err := buildWorkload(cfg, label, codecForMode(engine.ModeSBoost))
		if err != nil {
			t.Fatal(err)
		}
		sql, err := w.queryFor("Q1")
		if err != nil {
			t.Fatal(err)
		}
		var mt [2]float64
		for i, workers := range []int{2, 8} {
			c := cfg
			c.Workers = workers
			m, err := run(c, engineFor(c, w, engine.ModeSBoost), sql)
			if err != nil {
				t.Fatal(err)
			}
			mt[i] = m.Throughput
		}
		t.Logf("fig11 %s/Q1: SBoost %.1f MT/s at 2 workers, %.1f at 8", label, mt[0], mt[1])
		if mt[1] >= mt[0] {
			t.Errorf("fig11 %s/Q1: SBoost at 8 workers (%.1f MT/s) not below its 2-worker peak (%.1f MT/s)", label, mt[1], mt[0])
		}
	}
}

func TestFig14Stages(t *testing.T) {
	ms, err := Fig14Stages(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(DatasetLabels)*2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		if m.Extra["io_ms"] < 0 || m.Extra["decode_ms"] < 0 {
			t.Fatalf("%s: negative stage time", m.X)
		}
		// Q1 is a sliding window, so its fold is window stage time; Q3
		// has no windows, so it has none.
		switch win := m.Extra["window_ms"]; {
		case strings.HasSuffix(m.X, "/Q1") && win <= 0:
			t.Errorf("%s: window stage %v ms, want > 0", m.X, win)
		case strings.HasSuffix(m.X, "/Q3") && win != 0:
			t.Errorf("%s: window stage %v ms, want 0", m.X, win)
		}
	}
}

// TestFig14Slices counts Figure 8's prefix work: a page cut into s
// slices resolves s-1 prefix dependencies per execution, one for each
// slice after the first.
func TestFig14Slices(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	ms, err := Fig14Slices(small, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(counts) {
		t.Fatalf("measurements = %d", len(ms))
	}
	for i, s := range counts {
		if got := ms[i].Extra["prefix_fixups"]; got != float64(s-1) {
			t.Errorf("%d slices: %v prefix fix-ups, want %d", s, got, s-1)
		}
	}
}

func TestTables(t *testing.T) {
	t1, err := Table1(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 6 {
		t.Fatalf("Table1 rows = %d", len(t1))
	}
	for _, r := range t1 {
		if r.Ratio <= 0 || len(r.Semantics) == 0 {
			t.Fatalf("row %+v", r)
		}
	}
	t2, err := Table2(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 6 {
		t.Fatalf("Table2 rows = %d", len(t2))
	}
	t3, err := Table3(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3) != 6 {
		t.Fatalf("Table3 rows = %d", len(t3))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Rows <= 0 || c.Seed == 0 || c.Workers <= 0 || c.PageSize <= 0 {
		t.Fatalf("defaults: %+v", c)
	}
}
