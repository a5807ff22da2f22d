package bench

import (
	"strconv"
	"strings"
	"testing"

	"etsqp/internal/engine"
)

// small keeps the in-package tests quick; etsqp-bench runs the full-size
// sweeps.
var small = Config{Rows: 8000, Seed: 7, Workers: 2, PageSize: 1024}

func TestFig10Shape(t *testing.T) {
	ms, err := Fig10(small)
	if err != nil {
		t.Fatal(err)
	}
	want := len(DatasetLabels) * len(Approaches) * len(BenchQueries)
	if len(ms) != want {
		t.Fatalf("measurements = %d want %d", len(ms), want)
	}
	for _, m := range ms {
		if m.Throughput <= 0 {
			t.Fatalf("%s/%s: throughput %f", m.Series, m.X, m.Throughput)
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
	// The fused approach should benefit from longer runs: ETSQP at
	// runlen=64 should beat ETSQP at runlen=1 (more saved decoding).
	var et1, et64 float64
	for _, m := range ms {
		if m.Series == engine.ModeETSQP.String() {
			if m.X == "runlen=1" {
				et1 = m.Throughput
			}
			if m.X == "runlen=64" {
				et64 = m.Throughput
			}
		}
	}
	if et64 <= et1 {
		t.Logf("warning: fused run-length gain not visible at this size (%.1f vs %.1f)", et64, et1)
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
	// Fusing all three decoders must beat full decoding.
	if ms[0].Throughput <= ms[2].Throughput {
		t.Fatalf("fuse=3 (%.1f MT/s) should beat fuse=1 (%.1f MT/s)",
			ms[0].Throughput, ms[2].Throughput)
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

func TestFig14Slices(t *testing.T) {
	ms, err := Fig14Slices(small, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Extra["prefix_rows"] != 0 {
		t.Fatal("one slice has no prefix work")
	}
	// Four slices over r rows re-scan r*(4-1)/2 prefix rows (Figure 8).
	if ms[1].Extra["prefix_rows"] != float64(small.Rows)*3/2 {
		t.Fatalf("prefix work = %f", ms[1].Extra["prefix_rows"])
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
