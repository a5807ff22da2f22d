// Package cli implements the etsqp-cli shell logic: store construction
// from flags, statement dispatch (queries, EXPLAIN, and EXPLAIN
// ANALYZE), and result rendering. It lives outside cmd/ so the
// behaviour is unit-testable.
package cli

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"etsqp/internal/dataset"
	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// Modes maps the -mode flag values to execution modes.
var Modes = map[string]engine.Mode{
	"etsqp":     engine.ModeETSQP,
	"prune":     engine.ModeETSQPPrune,
	"serial":    engine.ModeSerial,
	"sboost":    engine.ModeSBoost,
	"fastlanes": engine.ModeFastLanes,
}

// Config describes a shell session.
type Config struct {
	LoadPath string // store file to load (exclusive with GenLabel)
	GenLabel string // Table II dataset to generate
	Rows     int
	Seed     int64
	Codec    string
	Mode     string
	Workers  int
	MaxRows  int // row-output cap
}

// BuildStore materializes the session's store from the config.
func (c Config) BuildStore() (*storage.Store, error) {
	switch {
	case c.LoadPath != "":
		return storage.ReadFile(c.LoadPath)
	case c.GenLabel != "":
		d, err := dataset.Generate(c.GenLabel, c.Rows, c.Seed)
		if err != nil {
			return nil, err
		}
		st := storage.NewStore()
		for a, col := range d.Attrs {
			name := fmt.Sprintf("ts%d", a+1)
			if err := st.Append(name, d.Time, col, storage.Options{ValueCodec: c.Codec}); err != nil {
				return nil, err
			}
		}
		return st, nil
	default:
		return nil, fmt.Errorf("cli: need a store file or a dataset label")
	}
}

// NewEngine builds the engine for the config.
func (c Config) NewEngine(st *storage.Store) (*engine.Engine, error) {
	m, ok := Modes[strings.ToLower(c.Mode)]
	if !ok {
		return nil, fmt.Errorf("cli: unknown mode %q", c.Mode)
	}
	e := engine.New(st, m)
	if c.Workers > 0 {
		e.Workers = c.Workers
	}
	return e, nil
}

// Execute runs one statement (query, EXPLAIN, or EXPLAIN ANALYZE) and
// renders the result.
func Execute(w io.Writer, eng *engine.Engine, sql string, maxRows int) error {
	trimmed := strings.TrimSpace(sql)
	if rest, ok := cutPrefixFold(trimmed, "EXPLAIN ANALYZE "); ok {
		info, err := eng.ExplainAnalyze(rest)
		if err != nil {
			return err
		}
		fmt.Fprint(w, info)
		return nil
	}
	if rest, ok := cutPrefixFold(trimmed, "EXPLAIN "); ok {
		info, err := eng.Explain(rest)
		if err != nil {
			return err
		}
		fmt.Fprint(w, info)
		return nil
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		return err
	}
	RenderResult(w, res, maxRows)
	return nil
}

// RenderResult writes a query result as the shell renders it: window
// rows, sorted aggregates, or tuples (capped at maxRows), followed by a
// one-line stats summary. The serve package reuses it for the /query
// endpoint so both surfaces render identically.
func RenderResult(w io.Writer, res *engine.Result, maxRows int) {
	switch {
	case len(res.Windows) > 0:
		for _, win := range res.Windows {
			fmt.Fprintf(w, "  window %d [%d, %d): %v (%d points)\n",
				win.Index, win.Start, win.End, win.Value, win.Count)
		}
	case res.Aggregates != nil:
		keys := make([]string, 0, len(res.Aggregates))
		for k := range res.Aggregates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s = %v\n", k, res.Aggregates[k])
		}
	default:
		row := make([]int64, len(res.Values))
		for i, t := range res.Time {
			if maxRows > 0 && i >= maxRows {
				fmt.Fprintf(w, "  ... %d more rows\n", len(res.Time)-maxRows)
				break
			}
			for c, vals := range res.Values {
				row[c] = vals[i]
			}
			fmt.Fprintf(w, "  %d\t%v\n", t, row)
		}
	}
	fmt.Fprintf(w, "  (%d pages, %d pruned, %d jobs, %d tuples)\n",
		res.Stats.PagesTotal, res.Stats.PagesPruned, res.Stats.SlicesRun, res.Stats.TuplesLoaded)
}

// Repl reads statements line by line, executing each.
func Repl(r io.Reader, w, errW io.Writer, eng *engine.Engine, maxRows int) {
	sc := bufio.NewScanner(r)
	fmt.Fprint(w, "etsqp> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			fmt.Fprint(w, "etsqp> ")
			continue
		case "exit", "quit":
			return
		}
		if err := Execute(w, eng, line, maxRows); err != nil {
			fmt.Fprintf(errW, "error: %v\n", err)
		}
		fmt.Fprint(w, "etsqp> ")
	}
}

// cutPrefixFold is strings.CutPrefix with ASCII case folding.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) {
		return s, false
	}
	if strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}
