// Command benchmark is the repository's performance benchmark: four
// workloads that each isolate one mechanism of the paper (vectorized
// decode, fusion on encoded data, pruning, and the serving surface
// with writes beside reads), end-to-end metrics from an untraced run
// and per-layer metrics from a traced run plus module probes. Inputs
// and the scalar oracle are generated here from -seed; README.md has
// the reading guide and BENCHMARK.json the contract the driver checks.
//
//	go run ./benchmark -seed 42                 # every workload, untraced then traced
//	go run ./benchmark -workload fused_agg      # one workload, both runs
//	go run ./benchmark -workload fused_agg -trace 0 -seconds 10   # one run, as the driver calls it
//	go run ./benchmark -agree 3                 # two interleaved sets of 3; exit 1 if they disagree
//	go run ./benchmark -layers-only             # the module probes alone
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run (default: all four)")
		seed       = flag.Int64("seed", defaultSeed, "seed for data, offsets and constants")
		seconds    = flag.Float64("seconds", defaultSeconds, "length of the timed phase of one run")
		trace      = flag.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), -1: both")
		jsonOut    = flag.Bool("json", false, "print results as JSON only")
		agree      = flag.Int("agree", 0, "run two interleaved sets of N untraced runs and compare their medians")
		layersOnly = flag.Bool("layers-only", false, "run only the module probes")
		outDir     = flag.String("out", "benchmark/out", "directory for trace files")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, warmup: warmupSeconds, div: 1, setups: setupRepeats, probes: probeRepeats, outDir: *outDir}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	var err error
	switch {
	case *layersOnly:
		err = printProbes(cfg, *jsonOut)
	case *agree > 0:
		err = runAgree(names, cfg, *agree)
	case *workload != "" && *trace >= 0:
		err = runOne(*workload, cfg, *trace == 1, *jsonOut)
	default:
		err = runSuite(names, cfg, *trace, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne is the driver's entry: one workload, one run, and the result
// object as the last line of standard output.
func runOne(name string, cfg config, traced, quiet bool) error {
	r, err := runWorkload(name, cfg, traced)
	if err != nil {
		return err
	}
	if !quiet {
		printResult(name, r, traced)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult lists every metric by name with its value, unit and
// direction.
func printResult(name string, r *result, traced bool) {
	kind := "end-to-end (untraced)"
	if traced {
		kind = "per-layer (traced + probes)"
	}
	fmt.Printf("== %s: %s  correct=%v attempted=%d failed=%d\n", name, kind, r.Correct, r.Attempted, r.Failed)
	for _, m := range specsFor(traced) {
		printMetric(m, r.Metrics[m.name].Value)
	}
	for _, n := range r.notes {
		fmt.Println("  #", n)
	}
}

// printMetric prints one metric line; end-to-end metrics also show
// their regression bound, and kernel rows values/s/core beside the
// nanoseconds.
func printMetric(m metricSpec, v float64) {
	fmt.Printf("  %-42s %16.6g %-9s %-6s", m.name, v, m.unit, m.better)
	switch {
	case m.bound > 0:
		fmt.Printf(" bound %.1f%%", 100*m.bound)
	case m.unit == "ns" && v > 0 && perValue(m.name):
		fmt.Printf(" %8.1f Mvalues/s/core", 1e3/v)
	}
	fmt.Println()
}

// perValue reports whether a nanosecond metric is per decoded value,
// i.e. comparable with published integers-per-second figures.
func perValue(name string) bool { return strings.Contains(name, "_ns_per_value") }

// runSuite runs the named workloads, each untraced and then traced
// (or only the run -trace selects).
func runSuite(names []string, cfg config, trace int, jsonOnly bool) error {
	type pair struct {
		EndToEnd *result `json:"end_to_end,omitempty"`
		PerLayer *result `json:"per_layer,omitempty"`
	}
	doc := struct {
		Seed      int64            `json:"seed"`
		Seconds   float64          `json:"seconds"`
		Claim     any              `json:"claim"` // this benchmark claims no gain
		Workloads map[string]*pair `json:"workloads"`
	}{Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]*pair{}}
	correct := true
	for _, name := range names {
		p := &pair{}
		doc.Workloads[name] = p
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue
			}
			r, err := runWorkload(name, cfg, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			correct = correct && r.Correct
			if traced {
				p.PerLayer = r
			} else {
				p.EndToEnd = r
			}
			if !jsonOnly {
				printResult(name, r, traced)
			}
		}
	}
	if jsonOnly {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("some answers disagreed with the oracle (failed > 0)")
	}
	return nil
}

func printProbes(cfg config, jsonOnly bool) error {
	probes, err := runProbes(cfg.seed, cfg.probes)
	if err != nil {
		return err
	}
	if jsonOnly {
		return json.NewEncoder(os.Stdout).Encode(probes)
	}
	fmt.Println("== module probes")
	for _, m := range perLayer {
		if v, ok := probes[m.name]; ok {
			printMetric(m, v)
		}
	}
	return nil
}

// runAgree is the repeatability check: two interleaved sets of n
// untraced runs of the same code. For every workload and end-to-end
// metric it prints both medians, their difference and the bound, and
// fails if the second set is worse than the first, or the first worse
// than the second, by more than the bound.
func runAgree(names []string, cfg config, n int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, name := range names {
			for set := range sets {
				r, err := runWorkload(name, cfg, false)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !r.Correct {
					return fmt.Errorf("%s: failed %d of %d", name, r.Failed, r.Attempted)
				}
				for _, m := range endToEnd {
					k := key{name, m.name}
					sets[set][k] = append(sets[set][k], r.Metrics[m.name].Value)
				}
				fmt.Fprintf(os.Stderr, "agree: round %d/%d %s set %c done\n", i+1, n, name, 'A'+set)
			}
		}
	}
	fmt.Printf("%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	disagree := 0
	for _, name := range names {
		for _, m := range endToEnd {
			k := key{name, m.name}
			a, b := median(sets[0][k]), median(sets[1][k])
			diff := ratio(b-a, a)
			verdict := ""
			if diff > m.bound || -diff > m.bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric(s) disagree beyond their bound", disagree)
	}
	return nil
}
