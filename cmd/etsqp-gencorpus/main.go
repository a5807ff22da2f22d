// Command etsqp-gencorpus regenerates the checked-in fuzz seed corpora
// under each fuzz target's testdata/fuzz directory:
//
//	go run ./cmd/etsqp-gencorpus [-C moduleRoot]
//
// The corpora are deterministic — valid blocks produced by the real
// encoders plus truncated and bit-flipped variants — so the scheduled
// fuzz CI job starts from inputs that already reach deep decode paths
// instead of spending its budget rediscovering the headers. Ordinary
// `go test` runs also execute every checked-in entry as a regression
// case.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"etsqp/internal/encoding"
	_ "etsqp/internal/encoding/gorilla" // register the gorilla codecs
	"etsqp/internal/encoding/rlbe"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/storage"
)

func main() {
	root := flag.String("C", ".", "module root to write testdata under")
	flag.Parse()
	if err := run(*root); err != nil {
		fmt.Fprintln(os.Stderr, "etsqp-gencorpus:", err)
		os.Exit(1)
	}
}

func run(root string) error {
	series := make([]int64, 300)
	cur := int64(1_700_000_000)
	for i := range series {
		series[i] = cur
		cur += int64(i%7)*13 + 1
	}
	runs := make([]int64, 200)
	for i := range runs {
		runs[i] = int64(i / 25 * 40) // long constant runs for RLE paths
	}

	if err := sqlCorpus(root); err != nil {
		return err
	}
	if err := parseSQLCorpus(root); err != nil {
		return err
	}
	if err := storageCorpus(root, series); err != nil {
		return err
	}
	if err := ts2diffCorpus(root, series, runs); err != nil {
		return err
	}
	if err := gorillaCorpus(root, series); err != nil {
		return err
	}
	if err := flattenCorpus(root); err != nil {
		return err
	}
	if err := rangeScannerCorpus(root); err != nil {
		return err
	}
	if err := scanFoldCorpus(root); err != nil {
		return err
	}
	if err := overflowParityCorpus(root); err != nil {
		return err
	}
	if err := readBitsCorpus(root); err != nil {
		return err
	}
	if err := readFieldsCorpus(root); err != nil {
		return err
	}
	if err := fibonacciCorpus(root); err != nil {
		return err
	}
	return rlbeCorpus(root, series, runs)
}

// readBitsCorpus seeds FuzzReadBits (internal/bitio): a buffer plus
// (count, skip) byte pairs. The seeds walk one buffer at every count
// 0..65, read 57..64-bit fields from each bit offset (the ninth-byte
// spill), and end inside the last 8 bytes (the zero-padded tail load)
// and one read past the end.
func readBitsCorpus(root string) error {
	buf := make([]byte, 96)
	for i := range buf {
		buf[i] = byte(i*0x6B + 0x1F)
	}
	var counts, spills, tail []byte
	for n := 0; n <= 65; n++ {
		counts = append(counts, byte(n), byte(n%3))
	}
	for off := 0; off < 8; off++ {
		spills = append(spills, byte(57+off), byte(off+1))
	}
	for i := 0; i < 12; i++ {
		tail = append(tail, 7, 0)
	}
	entries := [][2][]byte{
		{nil, nil},
		{buf, counts},
		{buf[:80], spills},
		{buf[:10], tail}, // 84 bits asked of 80
	}
	return writeBytePairEntries(filepath.Join(root, "internal/bitio/testdata/fuzz/FuzzReadBits"), entries)
}

// readFieldsCorpus seeds FuzzReadFields (internal/bitio): a buffer plus
// (width, count, skip) byte triples. The seeds start runs on every bit
// offset so the ReadBits head has 0..7 fields, use counts on both sides
// of one to three 64-field groups at kernel widths (1..32) and above
// them, end a run inside the buffer's last 8*width bytes (the partial
// group falls back to ReadBits) and ask for one field too many.
func readFieldsCorpus(root string) error {
	buf := make([]byte, 1200)
	for i := range buf {
		buf[i] = byte(i*0x6B + 0x1F)
	}
	var groups, heads, wide, tail []byte
	for _, n := range []byte{63, 64, 65, 127, 128, 197} {
		groups = append(groups, 12, n, 0, 5, n, 0)
	}
	for off := byte(0); off < 8; off++ {
		heads = append(heads, 3, 70, off, 20, 66, 0)
	}
	for _, w := range []byte{0, 32, 33, 57, 64, 65} {
		wide = append(wide, w, 65, 3)
	}
	tail = append(tail, 16, 64, 0, 16, 5, 0, 16, 1, 0) // 128+10+2 bytes of 140
	entries := [][2][]byte{
		{nil, nil},
		{buf, groups},
		{buf, heads},
		{buf, wide},
		{buf[:140], tail},
	}
	return writeBytePairEntries(filepath.Join(root, "internal/bitio/testdata/fuzz/FuzzReadFields"), entries)
}

// fibonacciCorpus seeds FuzzFibonacciDecode (internal/encoding): a
// payload, the number of codewords to decode and the start bit. The
// seeds are a stream of value-1 codewords ("11" repeated), all-ones
// bytes read from an odd bit past their last codeword, a codeword longer
// than one 64-bit window, a payload whose last codeword is cut short,
// and one whose codewords end exactly on its last byte.
func fibonacciCorpus(root string) error {
	enc := func(vals ...uint64) []byte {
		buf, err := encoding.FibonacciEncodeAll(vals)
		if err != nil {
			panic(err)
		}
		return buf
	}
	ones := make([]uint64, 37)
	for i := range ones {
		ones[i] = 1
	}
	cut := enc(5, 9, 1000, 123456)
	type entry struct {
		buf          []byte
		count, start int
	}
	entries := []entry{
		{enc(ones...), len(ones), 0},
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 200, 3},
		{enc(5, 1<<62+12345, 7), 3, 0},
		{cut[:len(cut)-1], 4, 0},
		{enc(1000, 1000, 1000, 1000), 4, 0}, // four 16-bit codewords: 8 bytes
	}
	dir := filepath.Join(root, "internal/encoding/testdata/fuzz/FuzzFibonacciDecode")
	for i, e := range entries {
		lit := fmt.Sprintf("[]byte(%s)\nuint16(%d)\nuint8(%d)", strconv.Quote(string(e.buf)), e.count, e.start)
		if err := writeEntry(dir, i, lit); err != nil {
			return err
		}
	}
	return nil
}

// overflowParityCorpus seeds FuzzOverflowParity (internal/fusion) with the
// extreme-magnitude pages the clamped random-walk differential targets
// never generate: first values and deltas at the int64 boundaries, the
// sqrt(2^63) square threshold, and cancelling walks whose running sums
// wrap while the totals fit. Input shape (see parityRuns in
// internal/fusion/overflow_parity_test.go): an int64 first value plus
// 9-byte runs — big-endian uint64 delta, then a count byte.
func overflowParityCorpus(root string) error {
	run := func(delta int64, countByte byte) []byte {
		var b [9]byte
		binary.BigEndian.PutUint64(b[:8], uint64(delta))
		b[8] = countByte
		return b[:]
	}
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	type entry struct {
		first int64
		raw   []byte
	}
	entries := []entry{
		{math.MaxInt64, run(1, 0)},
		{math.MinInt64, run(-1, 2)},
		{math.MaxInt64 / 2, run(math.MaxInt64/2, 1)},
		{math.MaxInt64 - 10, run(0, 4)},
		// Either side of sqrt(2^63): v² crosses int64 between these.
		{3_037_000_499, run(0, 1)},
		{3_037_000_500, run(0, 1)},
		// Huge single-step delta between two in-range values.
		{-3_000_000_000, run(6_000_000_000, 0)},
		// Cancelling walk: running sums wrap, the total fits.
		{math.MaxInt64 / 2, cat(run(-math.MaxInt64/2, 0), run(math.MaxInt64/2, 0), run(-math.MaxInt64/2, 0))},
		// Steep ramp that leaves int64 mid-page.
		{0, run(1<<40, 31)},
		// Moderate page: the must-succeed regime.
		{1 << 20, cat(run(1<<10, 31), run(-(1<<9), 15))},
	}
	dir := filepath.Join(root, "internal/fusion/testdata/fuzz/FuzzOverflowParity")
	for i, e := range entries {
		lit := "int64(" + strconv.FormatInt(e.first, 10) + ")\n[]byte(" + strconv.Quote(string(e.raw)) + ")"
		if err := writeEntry(dir, i, lit); err != nil {
			return err
		}
	}
	return nil
}

// flattenCorpus seeds FuzzFlatten's 4-byte-first + 3-byte-runs input
// shape (see internal/pipeline/fuzz_test.go) with pages that reach each
// flatten branch: pure repeats, ramps, alternating signs, and the
// truncation cap.
func flattenCorpus(root string) error {
	ramp := []byte{0x2A, 0, 0, 0} // first = 42
	for i := 0; i < 12; i++ {
		ramp = append(ramp, byte(i-6), byte(i%3), byte(i*20))
	}
	repeats := []byte{0xFF, 0xFF, 0xFF, 0xFF} // first = -1
	for i := 0; i < 8; i++ {
		repeats = append(repeats, 0, 0, 0xFF) // delta 0, count 256
	}
	huge := []byte{1, 0, 0, 0}
	for i := 0; i < 300; i++ { // overruns both the pair and total caps
		huge = append(huge, 0x7F, 7, 0xFF)
	}
	dir := filepath.Join(root, "internal/pipeline/testdata/fuzz/FuzzFlatten")
	return writeByteEntries(dir, nil, ramp, repeats, huge, truncated(ramp), flipped(ramp, 5))
}

// rangeScannerCorpus seeds FuzzRangeScanner's input shape (see
// parseScannerInput in internal/pipeline/fuzz_test.go: order/first
// selector, width, then uint16 from, to, chunk, then 3-byte row groups)
// with scans that vary what the cursor meets: byte-aligned and
// unaligned chunk starts, widths from zero to 64, order-2 prefix
// replay, first values at the int64 extremes, and start rows and chunk
// lengths that put the bulk reader's head, groups and tail mid-page.
func rangeScannerCorpus(root string) error {
	const order2, firstMax, firstMin = 1, 1 << 1, 2 << 1
	scan := func(sel, width byte, from, to, chunk uint16, groups int) []byte {
		out := []byte{sel, width}
		out = binary.LittleEndian.AppendUint16(out, from)
		out = binary.LittleEndian.AppendUint16(out, to)
		out = binary.LittleEndian.AppendUint16(out, chunk-1)
		for i := 0; i < groups; i++ {
			out = append(out, byte(i*37), byte(i*11+3), 0xFF)
		}
		return out
	}
	w12 := scan(0, 12, 0, 0xFFFF, 1024, 16) // whole page in wave-width chunks
	dir := filepath.Join(root, "internal/pipeline/testdata/fuzz/FuzzRangeScanner")
	return writeByteEntries(dir,
		nil,
		w12,
		scan(0, 8, 1001, 3000, 1024, 16),      // every chunk byte-aligned
		scan(0, 12, 1000, 3000, 7, 16),        // prefix fix-up, tiny chunks
		scan(0, 30, 9, 0xFFFF, 1500, 8),       // fields spanning 5 bytes
		scan(0, 40, 3, 0xFFFF, 100, 4),        // wider than a 32-bit lane
		scan(0, 0, 5, 0xFFFF, 64, 4),          // constant delta
		scan(order2, 10, 0, 0xFFFF, 1024, 12), // time-column recurrence
		scan(order2, 0, 700, 0xFFFF, 300, 8),  // order-2 prefix replay
		scan(firstMax, 64, 0, 0xFFFF, 512, 4), // wrapping accumulation
		scan(order2|firstMin, 63, 1, 0xFFFF, 1, 1),
		truncated(w12), flipped(w12, 1),
		scan(0, 5, 3, 0xFFFF, 64, 8),         // head fields, then whole groups
		scan(0, 20, 67, 0xFFFF, 65, 8),       // every chunk ends a field past a group
		scan(order2, 7, 66, 0xFFFF, 1024, 8), // order-2 replay ends mid-group
		scan(0, 32, 1, 0xFFFF, 200, 4),       // the widest kernel
		scan(order2, 33, 2, 0xFFFF, 200, 4))  // one bit past it: the ReadBits loop
}

// scanFoldCorpus seeds FuzzScanFold's input shape (see FuzzScanFold in
// internal/engine/fold_test.go: first selector, width, uint16 start row
// and chunk, range selector and two picks, start partial, then 3-byte
// row groups) with pages the one pass admits, pages it does not (widths
// 62-64, first values at the int64 edges), ranges ending at the edges,
// starts off the 64-field grid, and running sums at and past the int64
// edges.
func scanFoldCorpus(root string) error {
	const edgeC1, edgeC2, edges = 1, 2, 3 // range selector: c1, c2 from int64 edges
	scan := func(first, width byte, from, chunk uint16, sel, i1, i2, start byte, groups int) []byte {
		out := []byte{first, width}
		out = binary.LittleEndian.AppendUint16(out, from)
		out = binary.LittleEndian.AppendUint16(out, chunk-1)
		out = append(out, sel, i1, i2, start)
		for i := 0; i < groups; i++ {
			out = append(out, byte(i*37), byte(i*11+3), 0xFF)
		}
		return out
	}
	w12 := scan(0, 12, 0, 1024, 0, 17, 200, 0, 16) // wave width, range inside the page
	dir := filepath.Join(root, "internal/engine/testdata/fuzz/FuzzScanFold")
	return writeByteEntries(dir,
		nil,
		w12,
		scan(0, 4, 65, 63, 0, 3, 250, 0, 8), // off the grid, chunks under a group
		scan(0, 20, 1000, 1500, edgeC2, 40, 3, 0, 16), // c2 = MaxInt64
		scan(3, 0, 0, 1024, edges, 0, 3, 0, 8),        // constant deltas, whole int64
		scan(0, 12, 1, 1024, 0, 9, 99, 1, 16),         // sum at MaxInt64
		scan(0, 16, 0, 1024, edgeC1, 0, 120, 5, 16),   // sum past MaxInt64
		scan(1, 8, 7, 64, edges, 1, 2, 0, 4),          // first MaxInt64: no page bound
		scan(2, 62, 0, 1024, 0, 5, 77, 0, 8),          // bound overflows at width 62
		scan(0, 63, 3, 200, edgeC1, 2, 40, 3, 4),      // width 63
		scan(0, 64, 0, 1024, edges, 0, 3, 6, 4),       // width 64, wrapping rows, sum past MinInt64
		truncated(w12), flipped(w12, 3),
		// The pruned scan's chunks end on the 64-field grid (row ≡ 1
		// mod 64); these chunk sizes put the ends on it and just off it.
		scan(0, 12, 0, 961, 0, 17, 200, 0, 16),    // first chunk ends on the grid, later ones straddle it
		scan(0, 16, 1, 1024, 0, 5, 250, 0, 16),    // every chunk on the grid
		scan(0, 8, 29, 996, edgeC2, 40, 3, 0, 16), // mid-group start, first end on the grid
		scan(0, 20, 65, 1023, 0, 9, 99, 1, 16),    // a field short of the grid, sum at MaxInt64
		scan(0, 33, 1, 128, edgeC1, 2, 40, 0, 8),  // past the widest kernel, grid chunks
		scan(0, 1, 0, 1024, edges, 0, 3, 0, 0))    // a one-row page
}

func sqlCorpus(root string) error {
	seeds := []string{
		"SELECT SUM(A) FROM ts SW(0, 1000);",
		"SELECT MIN(A), MAX(A), VAR(A) FROM ts WHERE TIME >= 10 AND A != 3",
		"SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > 100)",
		"SELECT ts1.A*ts2.A FROM ts1, ts2 ORDER BY TIME",
		"SELECT FIRST(A), LAST(A) FROM root.sg.d1.v WHERE TIME <= 99",
		"SELECT COUNT(A) FROM ts WHERE",
	}
	dir := filepath.Join(root, "internal/sqlparse/testdata/fuzz/FuzzParse")
	for i, s := range seeds {
		if err := writeEntry(dir, i, "string("+strconv.Quote(s)+")"); err != nil {
			return err
		}
	}
	return nil
}

// parseSQLCorpus seeds FuzzParseSQL, the serving-path hardening target:
// statements exercising every clause the grammar accepts (windows,
// joins, unions, subqueries, LIMIT), boundary literals, and near-miss
// malformed inputs that reach deep into the parser before failing.
func parseSQLCorpus(root string) error {
	seeds := []string{
		"SELECT SUM(A) FROM ts",
		"SELECT AVG(A), VAR(A) FROM root.sg.d1.v WHERE TIME >= 1 AND A != -7 LIMIT 5",
		"SELECT COUNT(A) FROM ts GROUP BY TIME(100, 25)",
		"SELECT SUM(A) FROM ts SW(0, 1000, 250);",
		"SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2",
		"SELECT * FROM ts1 UNION ts2 ORDER BY TIME LIMIT 3",
		"SELECT MAX(A) FROM (SELECT * FROM ts WHERE A > 100)",
		"SELECT SUM(A) FROM ts WHERE TIME >= 9223372036854775807",
		"SELECT FIRST(A), LAST(A) FROM ts WHERE TIME >= -1 AND TIME <= 1",
		"SELECT SUM(A) FROM ts SW(0, 1000", // near-miss: unclosed window
		"SELECT ts1.A+ts2.A FROM ts1, ts2 GROUP BY TIME(",
	}
	dir := filepath.Join(root, "internal/sqlparse/testdata/fuzz/FuzzParseSQL")
	for i, s := range seeds {
		if err := writeEntry(dir, i, "string("+strconv.Quote(s)+")"); err != nil {
			return err
		}
	}
	return nil
}

func storageCorpus(root string, series []int64) error {
	st := storage.NewStore()
	ts := make([]int64, len(series))
	for i := range ts {
		ts[i] = int64(i) * 60
	}
	if err := st.Append("s", ts, series, storage.Options{PageSize: 64}); err != nil {
		return err
	}
	tmp, err := os.CreateTemp("", "etsqp-corpus-*")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	if err := st.WriteFile(tmp.Name()); err != nil {
		return err
	}
	valid, err := os.ReadFile(tmp.Name())
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "internal/storage/testdata/fuzz/FuzzReadBytes")
	return writeByteEntries(dir, valid, truncated(valid), flipped(valid, 0))
}

func ts2diffCorpus(root string, series, runs []int64) error {
	b1, err := ts2diff.Encode(series, ts2diff.Order1)
	if err != nil {
		return err
	}
	b2, err := ts2diff.Encode(series, ts2diff.Order2)
	if err != nil {
		return err
	}
	br, err := ts2diff.Encode(runs, ts2diff.Order1)
	if err != nil {
		return err
	}
	m1 := b1.Marshal()
	dir := filepath.Join(root, "internal/encoding/ts2diff/testdata/fuzz/FuzzUnmarshal")
	return writeByteEntries(dir, m1, b2.Marshal(), br.Marshal(), truncated(m1), flipped(m1, len(m1)/2))
}

func gorillaCorpus(root string, series []int64) error {
	dir := filepath.Join(root, "internal/encoding/gorilla/testdata/fuzz/FuzzRoundTrip")
	var entries [][]byte
	// Raw value bytes: the round-trip half of the target decodes these
	// into a series; 8 bytes per value, big-endian.
	raw := make([]byte, 0, len(series)*8)
	for _, v := range series[:64] {
		for s := 56; s >= 0; s -= 8 {
			raw = append(raw, byte(uint64(v)>>uint(s)))
		}
	}
	entries = append(entries, raw)
	// Valid blocks from both registered variants feed the adversarial
	// half with inputs that parse.
	for _, name := range []string{"gorilla", "gorilla-time"} {
		c, err := encoding.Lookup(name)
		if err != nil {
			return err
		}
		blk, err := c.Encode(series)
		if err != nil {
			return err
		}
		entries = append(entries, blk, truncated(blk), flipped(blk, len(blk)/2))
	}
	return writeByteEntries(dir, entries...)
}

func rlbeCorpus(root string, series, runs []int64) error {
	b, err := rlbe.Encode(series)
	if err != nil {
		return err
	}
	br, err := rlbe.Encode(runs)
	if err != nil {
		return err
	}
	m := b.Marshal()
	dir := filepath.Join(root, "internal/encoding/rlbe/testdata/fuzz/FuzzUnmarshal")
	return writeByteEntries(dir, m, br.Marshal(), truncated(m), flipped(m, len(m)-1))
}

func truncated(b []byte) []byte { return b[:len(b)/2] }

func flipped(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[i%len(out)] ^= 0x40
	}
	return out
}

func writeByteEntries(dir string, entries ...[]byte) error {
	for i, e := range entries {
		if err := writeEntry(dir, i, "[]byte("+strconv.Quote(string(e))+")"); err != nil {
			return err
		}
	}
	return nil
}

// writeBytePairEntries writes seeds for a target taking two []byte.
func writeBytePairEntries(dir string, entries [][2][]byte) error {
	for i, e := range entries {
		lit := "[]byte(" + strconv.Quote(string(e[0])) + ")\n[]byte(" + strconv.Quote(string(e[1])) + ")"
		if err := writeEntry(dir, i, lit); err != nil {
			return err
		}
	}
	return nil
}

// writeEntry writes one seed in the Go fuzz corpus file format.
func writeEntry(dir string, i int, literal string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
	return os.WriteFile(name, []byte("go test fuzz v1\n"+literal+"\n"), 0o644)
}
