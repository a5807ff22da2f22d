// Command etsqp-lint is the project's static-analysis multichecker: it
// loads the whole module with the standard library's type checker and
// runs the invariant suite in internal/lint/analyzers —
//
//	atomicfield    //etsqp:atomic fields touched only through sync/atomic
//	boundscontract call sites satisfy callees' //etsqp:bounds parameter intervals
//	guardedby      //etsqp:guardedby fields accessed holding the named mutex
//	hotpathalloc   no allocating constructs reachable from //etsqp:hotpath
//	lockorder      the module-wide lock-acquisition graph stays acyclic
//	nopanic        no panics reachable from Decode/Read/Unmarshal entries
//	obsguard       obs counters via atomic helpers, Enabled()-gated in hot paths
//	querydoc       SQL grammar surface and docs/QUERYING.md stay in sync
//	rangecheck     int64 arithmetic in //etsqp:rangecheck kernels is checked or in range
//	sharedwrite    parallel fan-outs write disjoint index ranges
//
// Usage:
//
//	go run ./cmd/etsqp-lint ./...
//	go run ./cmd/etsqp-lint -run guardedby,lockorder ./...
//	go run ./cmd/etsqp-lint -json ./...
//
// Diagnostics print as file:line:col: analyzer: message (or as a JSON
// array with -json) in a deterministic order, and the exit status is
// non-zero when any finding is reported. The annotations and
// suppression story are documented in docs/STATIC_ANALYSIS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"etsqp/internal/lint"
	"etsqp/internal/lint/analyzers"
	"etsqp/internal/lint/findings"
)

func main() {
	dir := flag.String("C", ".", "module root to analyze (directory containing go.mod)")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analyzers.All
	if *run != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers.All {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "etsqp-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	root := *dir
	// Package patterns (./...) are accepted for familiarity; the loader
	// always analyzes the whole module, which is what the suite's
	// cross-package invariants need anyway.
	m, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsqp-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(m, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsqp-lint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := findings.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "etsqp-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "etsqp-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
