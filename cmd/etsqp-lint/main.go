// Command etsqp-lint is the project's one static-analysis tool: it
// loads the whole module with the standard library's type checker and
// runs the invariant suite in internal/lint/analyzers —
//
//	atomicfield    //etsqp:atomic fields touched only through sync/atomic
//	boundscontract call sites satisfy callees' //etsqp:bounds parameter intervals
//	guardedby      //etsqp:guardedby fields accessed holding the named mutex
//	hotpathalloc   no allocating constructs reachable from //etsqp:hotpath
//	inline         //etsqp:inline functions within the compiler's inlining budget
//	lockorder      the module-wide lock-acquisition graph stays acyclic
//	nobce          //etsqp:nobce functions compile with zero retained bounds checks
//	noescape       nothing in //etsqp:noescape functions escapes to the heap
//	nopanic        no panics reachable from Decode/Read/Unmarshal entries
//	obsguard       obs counters via atomic helpers, Enabled()-gated in hot paths, none per hot-loop iteration
//	querydoc       SQL grammar surface and docs/QUERYING.md stay in sync
//	rangecheck     int64 arithmetic in //etsqp:rangecheck kernels is checked or in range
//	sharedwrite    parallel fan-outs write disjoint index ranges
//
// The three compiler contracts (inline, nobce, noescape) read the
// diagnostics of one `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`
// of the module, run only when one of them is selected.
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

	"etsqp/internal/lint"
	"etsqp/internal/lint/analyzers"
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

	suite, err := analyzers.Select(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsqp-lint: %v\n", err)
		os.Exit(2)
	}

	// Package patterns (./...) are accepted for familiarity; the loader
	// always analyzes the whole module, which is what the suite's
	// cross-package invariants need anyway.
	m, err := lint.Load(*dir)
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
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
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
