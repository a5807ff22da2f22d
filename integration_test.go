package etsqp_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"etsqp/internal/dataset"
	"etsqp/internal/engine"
	"etsqp/internal/storage"

	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/fastlanes"
)

// TestEndToEndLifecycle drives the full system the way a deployment
// would: streaming ingestion → page store → compaction → file on disk →
// reopen → queries in every execution mode, checked against a
// scan-based reference.
func TestEndToEndLifecycle(t *testing.T) {
	d, err := dataset.Generate("Gas", 30_000, 99)
	if err != nil {
		t.Fatal(err)
	}
	ts, vals := d.Time, d.Attrs[0]

	// 1. Streaming ingestion: points arrive one at a time; short flush
	// blocks accumulate (Figure 1(b) flexibility).
	st := storage.NewStore()
	const flushEvery = 999
	for off := 0; off < len(ts); off += flushEvery {
		end := off + flushEvery
		if end > len(ts) {
			end = len(ts)
		}
		if err := st.Append("root.gas.s0", ts[off:end], vals[off:end],
			storage.Options{PageSize: flushEvery}); err != nil {
			t.Fatal(err)
		}
	}
	ser, _ := st.Series("root.gas.s0")
	if len(ser.Pages) < 30 {
		t.Fatalf("expected many small flush pages, got %d", len(ser.Pages))
	}

	// 2. Compaction into uniform pages.
	if err := st.Compact("root.gas.s0", storage.Options{PageSize: 4096}); err != nil {
		t.Fatal(err)
	}
	if len(ser.Pages) != 8 {
		t.Fatalf("pages after compaction = %d", len(ser.Pages))
	}

	// 3. Persist, reopen.
	path := filepath.Join(t.TempDir(), "gas.etsqp")
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Queries across all modes agree with the reference scan.
	t1, t2 := ts[4000], ts[26_000]
	var wantSum, wantCount int64
	for i := range ts {
		if ts[i] >= t1 && ts[i] <= t2 {
			wantSum += vals[i]
			wantCount++
		}
	}
	for _, mode := range []engine.Mode{
		engine.ModeETSQP, engine.ModeETSQPPrune, engine.ModeSerial, engine.ModeSBoost,
		engine.ModeFastLanes,
	} {
		e := engine.New(st2, mode)
		res, err := e.ExecuteSQL(fmt.Sprintf(
			"SELECT SUM(A), COUNT(A), AVG(A) FROM root.gas.s0 WHERE TIME >= %d AND TIME <= %d", t1, t2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Aggregates["SUM(A)"] != float64(wantSum) ||
			res.Aggregates["COUNT(A)"] != float64(wantCount) {
			t.Fatalf("%v: %v (want sum %d count %d)", mode, res.Aggregates, wantSum, wantCount)
		}
		wantAvg := float64(wantSum) / float64(wantCount)
		if math.Abs(res.Aggregates["AVG(A)"]-wantAvg) > 1e-9 {
			t.Fatalf("%v: AVG %v want %v", mode, res.Aggregates["AVG(A)"], wantAvg)
		}
	}

	// 5. EXPLAIN agrees with what actually ran.
	e := engine.New(st2, engine.ModeETSQP)
	info, err := e.Explain(fmt.Sprintf(
		"SELECT SUM(A) FROM root.gas.s0 WHERE TIME >= %d AND TIME <= %d", t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	if info.Shape != "aggregate" || !info.Fused || info.Pages < 5 {
		t.Fatalf("plan: %+v", info)
	}
}

// TestBenchmarkQueriesAcrossDatasets is the Table III smoke matrix: all
// six query shapes on all six datasets under the full system.
func TestBenchmarkQueriesAcrossDatasets(t *testing.T) {
	for _, spec := range dataset.Specs {
		d, err := dataset.Generate(spec.Label, 6000, 3)
		if err != nil {
			t.Fatal(err)
		}
		st := storage.NewStore()
		if err := st.Append("ts1", d.Time, d.Attrs[0], storage.Options{PageSize: 1024}); err != nil {
			t.Fatal(err)
		}
		a2 := d.Attrs[len(d.Attrs)-1]
		t2 := make([]int64, 0, 3000)
		v2 := make([]int64, 0, 3000)
		for i := 0; i < len(d.Time); i += 2 {
			t2 = append(t2, d.Time[i])
			v2 = append(v2, a2[i])
		}
		if err := st.Append("ts2", t2, v2, storage.Options{PageSize: 1024}); err != nil {
			t.Fatal(err)
		}
		e := engine.New(st, engine.ModeETSQPPrune)
		interval := (d.Time[len(d.Time)-1] - d.Time[0]) / int64(len(d.Time)-1)
		queries := []string{
			fmt.Sprintf("SELECT SUM(A) FROM ts1 SW(%d, %d)", d.Time[0], interval*1000),
			fmt.Sprintf("SELECT AVG(A) FROM ts1 SW(%d, %d)", d.Time[0], interval*1000),
			fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM ts1 WHERE A > %d)", d.Attrs[0][0]),
			"SELECT ts1.A + ts2.A FROM ts1, ts2",
			"SELECT * FROM ts1 UNION ts2 ORDER BY TIME",
			"SELECT * FROM ts1, ts2 LIMIT 100",
		}
		for qi, sql := range queries {
			if _, err := e.ExecuteSQL(sql); err != nil {
				t.Fatalf("%s Q%d: %v", spec.Label, qi+1, err)
			}
		}
	}
}
