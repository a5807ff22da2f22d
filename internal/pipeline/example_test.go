package pipeline_test

import (
	"fmt"
	"log"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/pipeline"
)

// Decode every row of a TS2DIFF block through the pipeline cursor.
func ExampleDecodeRange() {
	vals := []int64{12, 16, 22, 27, 33}
	blk, err := ts2diff.Encode(vals, ts2diff.Order1)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := pipeline.DecodeRange(blk, 0, blk.Count)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(decoded)
	// Output: [12 16 22 27 33]
}
