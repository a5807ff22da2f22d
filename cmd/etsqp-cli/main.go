// etsqp-cli is a small SQL shell over the ETSQP engine. It loads a store
// file written by storage.WriteFile, or generates a Table II dataset on
// the fly, then executes statements from the command line or stdin.
// EXPLAIN <query> prints the execution plan without running it;
// EXPLAIN ANALYZE <query> runs it and annotates the plan with the
// observed counters, per-stage times, and the per-query span tree (see
// docs/OBSERVABILITY.md). With -obs, the process-wide metric counters
// dump on exit.
//
// The serve subcommand runs the live observability surface instead of
// the shell: an HTTP server with /metrics (Prometheus text exposition),
// /debug/windows (rolling-window rates, quantiles and top queries),
// /debug/pprof, and /query endpoints, an optional transport ingest
// listener, and a bounded slow-query log of span-tree JSON lines.
//
// The top subcommand is the terminal ops console: it polls a running
// server's /debug/windows and renders QPS, latency quantiles, pool
// utilization, cache hit ratio, and the most expensive recent queries
// by worker CPU, refreshing in place like top(1).
//
// Usage:
//
//	etsqp-cli -gen Atm -rows 100000 -q "SELECT AVG(A) FROM ts1"
//	etsqp-cli -load store.etsqp            # interactive: one query per line
//	etsqp-cli -gen Gas -mode serial -q "EXPLAIN SELECT SUM(A) FROM ts1"
//	etsqp-cli -gen Atm -mode prune -obs -q "EXPLAIN ANALYZE SELECT SUM(A) FROM ts1 WHERE A >= 3"
//	etsqp-cli serve -gen Atm -http :8080 -ingest :9090 -slow 100ms -slow-max 1024
//	etsqp-cli top -url http://localhost:8080 -interval 1s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"etsqp/internal/cli"
	"etsqp/internal/exec"
	"etsqp/internal/obs"
	"etsqp/internal/serve"
	"etsqp/internal/storage"

	_ "etsqp/internal/encoding/chimp"
	_ "etsqp/internal/encoding/elf"
	_ "etsqp/internal/encoding/gorilla"
	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/encoding/ts2diff"
	_ "etsqp/internal/fastlanes"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		runTop(os.Args[2:])
		return
	}
	var (
		load    = flag.String("load", "", "store file to load")
		gen     = flag.String("gen", "", "Table II dataset label to generate (Atm Clim Gas Time Sine TPCH)")
		rows    = flag.Int("rows", 100_000, "rows to generate")
		seed    = flag.Int64("seed", 42, "generator seed")
		codec   = flag.String("codec", "ts2diff", "value codec for generated data")
		mode    = flag.String("mode", "etsqp", "execution mode: etsqp prune serial sboost fastlanes")
		query   = flag.String("q", "", "one-shot query (otherwise read stdin)")
		workers = flag.Int("workers", 0, "worker pipelines (0 = GOMAXPROCS)")
		maxRows = flag.Int("maxrows", 20, "row-output limit")
		obsDump = flag.Bool("obs", false, "enable global metrics and dump them on exit")
	)
	flag.Parse()
	if *obsDump {
		obs.Enable()
		defer func() {
			fmt.Println("-- metrics --")
			obs.Dump(os.Stdout)
		}()
	}
	cfg := cli.Config{
		LoadPath: *load, GenLabel: *gen, Rows: *rows, Seed: *seed,
		Codec: *codec, Mode: *mode, Workers: *workers, MaxRows: *maxRows,
	}
	store, err := cfg.BuildStore()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("series: %s\n", strings.Join(store.Names(), ", "))
	eng, err := cfg.NewEngine(store)
	if err != nil {
		log.Fatal(err)
	}
	if *query != "" {
		if err := cli.Execute(os.Stdout, eng, *query, *maxRows); err != nil {
			log.Fatal(err)
		}
		return
	}
	cli.Repl(os.Stdin, os.Stdout, os.Stderr, eng, *maxRows)
}

// runServe starts the observability serving surface: HTTP metrics,
// profiling and query endpoints over a loaded or generated store, plus
// an optional transport ingest listener.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		load     = fs.String("load", "", "store file to load")
		gen      = fs.String("gen", "", "Table II dataset label to generate (Atm Clim Gas Time Sine TPCH)")
		rows     = fs.Int("rows", 100_000, "rows to generate")
		seed     = fs.Int64("seed", 42, "generator seed")
		codec    = fs.String("codec", "ts2diff", "value codec for generated data")
		mode     = fs.String("mode", "etsqp", "execution mode: etsqp prune serial sboost fastlanes")
		workers  = fs.Int("workers", 0, "worker pipelines (0 = GOMAXPROCS)")
		maxRows  = fs.Int("maxrows", 20, "row-output limit on /query")
		httpAddr = fs.String("http", ":8080", "HTTP listen address")
		ingest   = fs.String("ingest", "", "transport ingest listen address (empty = off)")
		slow     = fs.Duration("slow", 100*time.Millisecond, "slow-query log threshold (0 logs everything)")
		slowMax  = fs.Int("slow-max", 1024, "slow-query traces retained in memory (negative = none)")
		execWork = fs.Int("exec-workers", 0, "shared execution pool size (0 = GOMAXPROCS)")
		cacheMB  = fs.Int("cache-mb", 64, "decoded-page cache budget in MiB (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	cfg := cli.Config{
		LoadPath: *load, GenLabel: *gen, Rows: *rows, Seed: *seed,
		Codec: *codec, Mode: *mode, Workers: *workers, MaxRows: *maxRows,
	}
	// A pure ingest server starts with an empty store and fills from the
	// transport listener.
	store := storage.NewStore()
	if *load != "" || *gen != "" {
		var err error
		store, err = cfg.BuildStore()
		if err != nil {
			log.Fatal(err)
		}
	}
	eng, err := cfg.NewEngine(store)
	if err != nil {
		log.Fatal(err)
	}
	// The shared execution layer (docs/EXECUTION.md): one pool for every
	// concurrent query, and a decoded-page cache invalidated on ingest.
	eng.Pool = exec.NewPool(*execWork)
	if *cacheMB > 0 {
		cache := exec.NewPageCache(int64(*cacheMB) << 20)
		store.OnMutate(func(series string) { cache.InvalidateSeries(series) })
		eng.Cache = cache
	}
	obs.Enable() // the serving surface exists to be scraped
	// The rolling-window sampler behind /debug/windows:
	// one registry snapshot per second, 5m30s of history.
	windows := obs.NewWindow(time.Second, 0)
	stopWindows := windows.Start()
	defer stopWindows()
	srv := &serve.Server{
		Engine: eng, Store: store,
		SlowThreshold: *slow, SlowLog: os.Stderr, MaxRows: *maxRows,
		SlowMax: *slowMax, Windows: windows,
	}
	if *ingest != "" {
		l, err := net.Listen("tcp", *ingest)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingest: %s\n", l.Addr())
		go func() { log.Fatal(srv.ServeIngest(l)) }()
	}
	fmt.Printf("http: %s (endpoints: /metrics /debug/windows /debug/pprof /query /healthz)\n", *httpAddr)
	log.Fatal(http.ListenAndServe(*httpAddr, srv.Handler()))
}

// runTop runs the terminal ops console against a running serve
// instance.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	var (
		url      = fs.String("url", "http://localhost:8080", "base URL of a running etsqp-cli serve instance")
		interval = fs.Duration("interval", time.Second, "refresh interval")
		frames   = fs.Int("n", 0, "number of frames to render (0 = run until the server goes away)")
		topN     = fs.Int("top", 10, "recent queries to list, ranked by worker CPU")
	)
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if err := serve.RunTop(os.Stdout, *url, *interval, *frames, *topN); err != nil {
		log.Fatal(err)
	}
}
