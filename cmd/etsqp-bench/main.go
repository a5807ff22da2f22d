// etsqp-bench regenerates the paper's evaluation tables and figures and
// prints them as aligned text. With -obs, the process-wide observability
// counters (see docs/OBSERVABILITY.md) are enabled for the run and
// dumped as "name value" lines on exit.
//
// Usage:
//
//	etsqp-bench -all
//	etsqp-bench -fig 10            # figures: 10 11 12 13 14
//	etsqp-bench -table 1           # tables: 1 2 3
//	etsqp-bench -fig 10 -rows 200000 -workers 8
//	etsqp-bench -fig 13 -obs       # append the global metrics dump
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"etsqp/internal/bench"
	"etsqp/internal/obs"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "figure number to regenerate (10-14)")
		table   = flag.Int("table", 0, "table number to regenerate (1-3)")
		all     = flag.Bool("all", false, "regenerate everything")
		rows    = flag.Int("rows", 100_000, "rows per generated series")
		seed    = flag.Int64("seed", 42, "dataset generator seed")
		workers = flag.Int("workers", 0, "engine worker pipelines (0 = GOMAXPROCS)")
		reps    = flag.Int("reps", 0, "timed repetitions per point, best-of (0 = default 3)")
		conc    = flag.Bool("conc", false, "run the concurrent-clients shared-execution figure")
		window  = flag.Bool("window", false, "run the window-overlap shared-segment figure")
		csvOut  = flag.Bool("csv", false, "emit measurements as CSV instead of tables")
		obsDump = flag.Bool("obs", false, "enable global metrics and dump them on exit")
	)
	flag.Parse()
	csvMode = *csvOut
	if *obsDump {
		obs.Enable()
		defer func() {
			section("Metrics")
			obs.Dump(os.Stdout)
		}()
	}
	cfg := bench.Config{Rows: *rows, Seed: *seed, Workers: *workers, Reps: *reps}.WithDefaults()

	if !*all && *fig == 0 && *table == 0 && !*conc && !*window {
		flag.Usage()
		os.Exit(2)
	}
	if *all || *table == 1 {
		printTable1(cfg)
	}
	if *all || *table == 2 {
		printTable2(cfg)
	}
	if *all || *table == 3 {
		printTable3(cfg)
	}
	if *all || *fig == 10 {
		section("Figure 10: throughput of SIMD approaches over IoT queries (Mtuples/s)")
		printMeasurements(must(bench.Fig10(cfg)))
	}
	if *all || *fig == 11 {
		section("Figure 11: query performance over varied threads (Mtuples/s)")
		printMeasurements(must(bench.Fig11(cfg, nil)))
	}
	if *all || *fig == 12 {
		section("Figure 12(a,b): Delta-only encoding vs threads")
		printMeasurements(must(bench.Fig12DeltaThreads(cfg, nil)))
		section("Figure 12(c,d): Delta-Repeat vs run length")
		printMeasurements(must(bench.Fig12RunLength(cfg, nil)))
		section("Figure 12(e,f): Delta-Repeat-Packing vs packing width")
		printMeasurements(must(bench.Fig12PackWidth(cfg, nil)))
	}
	if *all || *fig == 13 {
		section("Figure 13: deployment comparison (time & value range queries)")
		printMeasurements(must(bench.Fig13(cfg)))
	}
	if *all || *conc {
		section("Concurrent clients: shared pool vs pool+cache, skewed page widths (aggregate Mtuples/s)")
		printMeasurements(must(bench.FigConcurrent(cfg, nil)))
	}
	if *all || *window {
		section("Window overlap: shared segments, fused vs serial decode (Mtuples/s)")
		printMeasurements(must(bench.FigWindow(cfg, nil)))
	}
	if *all || *fig == 14 {
		section("Figure 14(a): decoder fusion ablation")
		printMeasurements(must(bench.Fig14Fusion(cfg)))
		section("Figure 14(b): stage time breakdown (ms)")
		printStages(must(bench.Fig14Stages(cfg)))
		section("Figure 14(c,d): page-slice ablation")
		printSlices(must(bench.Fig14Slices(cfg, nil)))
	}
}

// csvMode switches the measurement printers to CSV output.
var csvMode bool

// printCSV emits figure,series,x,throughput_mts,elapsed_ns rows.
func printCSV(ms []bench.Measurement) {
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	_ = w.Write([]string{"figure", "series", "x", "throughput_mts", "elapsed_ns"})
	for _, m := range ms {
		_ = w.Write([]string{
			m.Figure, m.Series, m.X,
			strconv.FormatFloat(m.Throughput, 'f', 3, 64),
			strconv.FormatInt(int64(m.Elapsed), 10),
		})
	}
}

func must(ms []bench.Measurement, err error) []bench.Measurement {
	if err != nil {
		log.Fatal(err)
	}
	return ms
}

func section(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

// printMeasurements pivots measurements into an X-by-Series grid.
func printMeasurements(ms []bench.Measurement) {
	if csvMode {
		printCSV(ms)
		return
	}
	series := []string{}
	xs := []string{}
	seenS := map[string]bool{}
	seenX := map[string]bool{}
	val := map[string]float64{}
	for _, m := range ms {
		if !seenS[m.Series] {
			seenS[m.Series] = true
			series = append(series, m.Series)
		}
		if !seenX[m.X] {
			seenX[m.X] = true
			xs = append(xs, m.X)
		}
		val[m.X+"|"+m.Series] = m.Throughput
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s", "workload")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%s", x)
		for _, s := range series {
			if v, ok := val[x+"|"+s]; ok {
				fmt.Fprintf(w, "\t%.2f", v)
			} else {
				fmt.Fprintf(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

func printStages(ms []bench.Measurement) {
	stages := []string{"io", "decode", "filter", "agg", "window", "merge"}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "dataset\t%s\tio-share\n", strings.Join(stages, "\t"))
	for _, m := range ms {
		fmt.Fprintf(w, "%s", m.X)
		total := 0.0
		for _, s := range stages {
			total += m.Extra[s+"_ms"]
			fmt.Fprintf(w, "\t%.2f", m.Extra[s+"_ms"])
		}
		share := 0.0
		if total > 0 {
			share = m.Extra["io_ms"] / total * 100
		}
		fmt.Fprintf(w, "\t%.0f%%\n", share)
	}
	w.Flush()
}

func printSlices(ms []bench.Measurement) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "slices\telapsed\tMT/s\tprefix fix-ups")
	for _, m := range ms {
		fmt.Fprintf(w, "%s\t%v\t%.2f\t%.0f\n",
			strings.TrimPrefix(m.X, "slices="), m.Elapsed, m.Throughput, m.Extra["prefix_fixups"])
	}
	w.Flush()
}

func printTable1(cfg bench.Config) {
	section("Table I: combined encoders (semantics + measured ratio on Sine)")
	rows, err := bench.Table1(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tsemantics\tratio")
	for _, r := range rows {
		sem := make([]string, len(r.Semantics))
		for i, s := range r.Semantics {
			sem[i] = s.String()
		}
		fmt.Fprintf(w, "%s\t%s\t%.1fx\n", r.Method, strings.Join(sem, "+"), r.Ratio)
	}
	w.Flush()
}

func printTable2(cfg bench.Config) {
	section("Table II: dataset statistics (paper sizes; generated at -rows)")
	rows, err := bench.Table2(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tlabel\t#size\t#attr\tcategory\tgenerated\tencoded-bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%d\t%d\n",
			r.Spec.Name, r.Spec.Label, r.Spec.Size, r.Spec.Attrs, r.Spec.Category,
			r.GenRows, r.EncodedBytes)
	}
	w.Flush()
}

func printTable3(cfg bench.Config) {
	section("Table III: benchmark queries (parsed and executed)")
	qs, err := bench.Table3(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]string, 0, len(qs))
	for id := range qs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %s: %s\n", id, qs[id])
	}
}
