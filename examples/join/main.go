// Join: multi-series pipelines — series merge (UNION ... ORDER BY TIME),
// natural join, and an arithmetic projection over the join, mirroring
// benchmark queries Q4-Q6. Both operators stream typed columnar batches
// from storage cursors, so a LIMIT stops page decoding early.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"etsqp/internal/engine"
	"etsqp/internal/storage"

	_ "etsqp/internal/encoding/ts2diff"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	store := storage.NewStore()

	// Two sensors on different sampling grids: temperatures every 2 s,
	// humidity every 3 s — they align every 6 s.
	n := 50_000
	t1 := make([]int64, n)
	v1 := make([]int64, n)
	t2 := make([]int64, n)
	v2 := make([]int64, n)
	for i := 0; i < n; i++ {
		t1[i] = int64(i+1) * 2000
		v1[i] = 200 + int64(i%40)
		t2[i] = int64(i+1) * 3000
		v2[i] = 550 + int64(i%25)
	}
	if err := store.Append("temp", t1, v1, storage.Options{}); err != nil {
		return err
	}
	if err := store.Append("hum", t2, v2, storage.Options{}); err != nil {
		return err
	}

	eng := engine.New(store, engine.ModeETSQP)

	// Q5: time-ordered merge of both series.
	res, err := eng.ExecuteSQL("SELECT * FROM temp UNION hum ORDER BY TIME")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "merge: %d rows (from %d + %d inputs)\n", len(res.Time), n, n)

	// Q6: natural join — rows where both sensors reported.
	res, err = eng.ExecuteSQL("SELECT * FROM temp, hum")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "natural join: %d aligned rows\n", len(res.Time))
	for i := 0; i < 3 && i < len(res.Time); i++ {
		fmt.Fprintf(w, "  t=%-8d temp=%d hum=%d\n", res.Time[i], res.Values[0][i], res.Values[1][i])
	}

	// Q4: arithmetic over the join.
	res, err = eng.ExecuteSQL("SELECT temp.A + hum.A FROM temp, hum")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "projection temp+hum: %d rows, first = %d\n",
		len(res.Time), res.Values[0][0])

	// LIMIT stops the cursors early: only the first pages of each side
	// are ever decoded, visible as the pages-read / batch counts.
	res, err = eng.ExecuteSQL("SELECT * FROM temp, hum LIMIT 3")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "join LIMIT 3: %d rows from %d cursor batches (%d of %d pages read)\n",
		len(res.Time), res.Stats.CursorBatches, res.Stats.PagesRead, res.Stats.PagesTotal)
	return nil
}
