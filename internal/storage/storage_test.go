package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	// Register codecs used by the tests.
	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/encoding/ts2diff"
	_ "etsqp/internal/fastlanes"
)

func genSeries(n int) (ts, vals []int64) {
	ts = make([]int64, n)
	vals = make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1_700_000_000_000 + int64(i)*1000
		vals[i] = int64(i%97) * 3
	}
	return ts, vals
}

func TestAppendAndReadColumns(t *testing.T) {
	st := NewStore()
	ts, vals := genSeries(10_000)
	if err := st.Append("root.sg.d1.velocity", ts, vals, Options{PageSize: 1024}); err != nil {
		t.Fatal(err)
	}
	ser, ok := st.Series("root.sg.d1.velocity")
	if !ok {
		t.Fatal("series missing")
	}
	if got, want := len(ser.Pages), 10; got != want {
		t.Fatalf("pages = %d, want %d", got, want)
	}
	if ser.NumPoints() != 10_000 {
		t.Fatalf("points = %d", ser.NumPoints())
	}
	gotTs, gotVals, err := st.ReadColumns("root.sg.d1.velocity")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTs, ts) || !reflect.DeepEqual(gotVals, vals) {
		t.Fatal("round trip mismatch")
	}
}

func TestPageHeaderStatistics(t *testing.T) {
	st := NewStore()
	ts := []int64{10, 20, 30, 40}
	vals := []int64{5, -2, 100, 7}
	if err := st.Append("s", ts, vals, Options{}); err != nil {
		t.Fatal(err)
	}
	ser, _ := st.Series("s")
	pp := ser.Pages[0]
	if pp.StartTime() != 10 || pp.EndTime() != 40 {
		t.Fatalf("time range [%d,%d]", pp.StartTime(), pp.EndTime())
	}
	if pp.Value.Header.MinValue != -2 || pp.Value.Header.MaxValue != 100 {
		t.Fatalf("value stats [%d,%d]", pp.Value.Header.MinValue, pp.Value.Header.MaxValue)
	}
	if pp.Time.Header.Kind != ColumnTime || pp.Value.Header.Kind != ColumnValue {
		t.Fatal("column kinds wrong")
	}
}

func TestAppendValidation(t *testing.T) {
	st := NewStore()
	if err := st.Append("s", []int64{1, 2}, []int64{1}, Options{}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := st.Append("s", []int64{5, 5}, []int64{1, 2}, Options{}); err == nil {
		t.Fatal("non-increasing timestamps must fail")
	}
	if err := st.Append("s", []int64{1, 2}, []int64{1, 2}, Options{}); err != nil {
		t.Fatal(err)
	}
	// Out-of-order append across calls.
	if err := st.Append("s", []int64{2, 3}, []int64{1, 2}, Options{}); err == nil {
		t.Fatal("overlapping append must fail")
	}
	if err := st.Append("s", []int64{10, 11}, []int64{1, 2}, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCodec(t *testing.T) {
	st := NewStore()
	err := st.Append("s", []int64{1}, []int64{1}, Options{ValueCodec: "nope"})
	if err == nil {
		t.Fatal("unknown codec must fail")
	}
}

func TestAllCodecsThroughStorage(t *testing.T) {
	ts, vals := genSeries(3000)
	for _, codec := range []string{"ts2diff", "sprintz", "rlbe", "fastlanes"} {
		st := NewStore()
		if err := st.Append("s", ts, vals, Options{ValueCodec: codec, PageSize: 1000}); err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		_, gotVals, err := st.ReadColumns("s")
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if !reflect.DeepEqual(gotVals, vals) {
			t.Fatalf("%s: round trip mismatch", codec)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	st := NewStore()
	ts, vals := genSeries(5000)
	if err := st.Append("a.b.c", ts, vals, Options{PageSize: 777}); err != nil {
		t.Fatal(err)
	}
	ts2 := make([]int64, len(ts))
	for i := range ts2 {
		ts2[i] = ts[i] + 37
	}
	if err := st.Append("x.y", ts2, vals, Options{ValueCodec: "sprintz"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.etsqp")
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Names(), st2.Names()) {
		t.Fatalf("names %v vs %v", st.Names(), st2.Names())
	}
	for _, name := range st.Names() {
		t1, v1, err := st.ReadColumns(name)
		if err != nil {
			t.Fatal(err)
		}
		t2c, v2, err := st2.ReadColumns(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t1, t2c) || !reflect.DeepEqual(v1, v2) {
			t.Fatalf("series %s mismatch after file round trip", name)
		}
	}
}

func TestReadBytesCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("WRONGMAGIC"),
		[]byte("ETSQP1\x00\x00\x00\x05"), // claims 5 series, no data
	}
	for i, c := range cases {
		if _, err := ReadBytes(c); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Truncate a valid file at every eighth byte; must error, never panic.
	st := NewStore()
	ts, vals := genSeries(100)
	if err := st.Append("s", ts, vals, Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f")
	if err := st.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full)-1; cut += 8 {
		if _, err := ReadBytes(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestPairCountMismatchRefused: a page pair whose time and value headers
// disagree on the row count enters no store, whether appended or loaded
// from a file.
func TestPairCountMismatchRefused(t *testing.T) {
	ts, vals := genSeries(100)
	pairs, err := EncodePages(ts, vals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	value := *pairs[0].Value
	value.Header.Count--
	bad := PagePair{Time: pairs[0].Time, Value: &value}
	st := NewStore()
	if err := st.AppendPages("s", []PagePair{bad}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AppendPages: %v, want ErrCorrupt", err)
	}
	if ser, ok := st.Series("s"); ok && ser.NumPages() != 0 {
		t.Fatalf("a refused pair was stored")
	}

	if err := st.AppendPages("s", pairs); err != nil {
		t.Fatal(err)
	}
	ser, _ := st.Series("s")
	ser.Pages[0] = bad // a file written by a store that did not check
	var buf bytes.Buffer
	if err := st.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBytes(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadBytes: %v, want ErrCorrupt", err)
	}
}

func TestEncodePagesQuick(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		ts := make([]int64, n)
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			ts[i] = int64(i)*100 + (seed%50+50)*int64(i%3)/3 + int64(i)
			vals[i] = (seed + int64(i*i)) % 100000
		}
		pairs, err := EncodePages(ts, vals, Options{PageSize: 333})
		if err != nil {
			return false
		}
		var gotT, gotV []int64
		for _, pp := range pairs {
			tc, err := pp.Time.Decode()
			if err != nil {
				return false
			}
			vc, err := pp.Value.Decode()
			if err != nil {
				return false
			}
			gotT = append(gotT, tc...)
			gotV = append(gotV, vc...)
		}
		return reflect.DeepEqual(gotT, ts) && reflect.DeepEqual(gotV, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedBytesAndTimeRange(t *testing.T) {
	st := NewStore()
	ts, vals := genSeries(2000)
	if err := st.Append("s", ts, vals, Options{}); err != nil {
		t.Fatal(err)
	}
	ser, _ := st.Series("s")
	if ser.EncodedBytes() <= 0 {
		t.Fatal("encoded bytes must be positive")
	}
	// TS2DIFF on this series must compress well below raw size.
	if raw := 2000 * 16; ser.EncodedBytes() > raw/4 {
		t.Fatalf("weak compression: %d bytes vs raw %d", ser.EncodedBytes(), raw)
	}
	start, end := ser.TimeRange()
	if start != ts[0] || end != ts[len(ts)-1] {
		t.Fatalf("time range [%d,%d]", start, end)
	}
	var empty Series
	if s, e := empty.TimeRange(); s != 0 || e != 0 {
		t.Fatal("empty series time range")
	}
}

func TestPagesInRange(t *testing.T) {
	st := NewStore()
	ts, vals := genSeries(10_000)
	if err := st.Append("s", ts, vals, Options{PageSize: 1000}); err != nil {
		t.Fatal(err)
	}
	ser, _ := st.Series("s")
	// Reference: linear scan.
	for _, rg := range [][2]int64{
		{ts[0], ts[len(ts)-1]},
		{ts[0] - 100, ts[0] - 1},
		{ts[len(ts)-1] + 1, ts[len(ts)-1] + 100},
		{ts[2500], ts[2500]},
		{ts[999], ts[1000]},
		{ts[1500], ts[8700]},
		{ts[5], ts[3]}, // inverted
	} {
		got := ser.PagesInRange(rg[0], rg[1])
		var want []PagePair
		if rg[1] >= rg[0] {
			for _, pp := range ser.Pages {
				if pp.EndTime() >= rg[0] && pp.StartTime() <= rg[1] {
					want = append(want, pp)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range %v: got %d pages want %d", rg, len(got), len(want))
		}
		for i := range got {
			if got[i].Time != want[i].Time {
				t.Fatalf("range %v: page %d differs", rg, i)
			}
		}
	}
}

func TestCompact(t *testing.T) {
	st := NewStore()
	ts, vals := genSeries(5000)
	// Ingest in many small appends (short flush blocks).
	for off := 0; off < len(ts); off += 137 {
		end := off + 137
		if end > len(ts) {
			end = len(ts)
		}
		if err := st.Append("s", ts[off:end], vals[off:end], Options{PageSize: 137}); err != nil {
			t.Fatal(err)
		}
	}
	ser, _ := st.Series("s")
	smallPages := len(ser.Pages)
	sizeBefore := ser.EncodedBytes()
	if err := st.Compact("s", Options{PageSize: 2048}); err != nil {
		t.Fatal(err)
	}
	if got := len(ser.Pages); got >= smallPages || got != 3 {
		t.Fatalf("pages after compact = %d (before %d)", got, smallPages)
	}
	if ser.EncodedBytes() >= sizeBefore {
		t.Fatalf("compaction did not shrink: %d -> %d", sizeBefore, ser.EncodedBytes())
	}
	gotTs, gotVals, err := st.ReadColumns("s")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTs, ts) || !reflect.DeepEqual(gotVals, vals) {
		t.Fatal("compaction changed data")
	}
	if err := st.Compact("nosuch", Options{}); err == nil {
		t.Fatal("unknown series must fail")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	st := NewStore()
	ts, vals := genSeries(500)
	if err := st.Append("s", ts, vals, Options{PageSize: 250}); err != nil {
		t.Fatal(err)
	}
	ser, _ := st.Series("s")
	page := ser.Pages[0].Value
	if page.Header.Checksum == 0 {
		t.Fatal("checksum not written")
	}
	if err := page.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	page.Data[3] ^= 0x01 // single bit flip
	if err := page.VerifyChecksum(); err == nil {
		t.Fatal("bit flip not detected")
	}
	if _, err := page.Decode(); err == nil {
		t.Fatal("decode of corrupted page must fail")
	}
	// Legacy pages without a checksum are accepted.
	page.Header.Checksum = 0
	if err := page.VerifyChecksum(); err != nil {
		t.Fatal("zero checksum must be accepted")
	}
}

// TestPayloadMismatchIsCorrupt: the checksum covers the payload only, so
// a page whose header count disagrees with its payload passes it, and a
// page without a checksum has none to fail. Both are still corrupt pages
// to every reader of the store, as they are to the engine.
func TestPayloadMismatchIsCorrupt(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*Page)
	}{
		{"header count 257 over 256 rows", func(p *Page) { p.Header.Count++ }},
		{"checksum-less payload cut short", func(p *Page) {
			p.Data, p.Header.Checksum = p.Data[:len(p.Data)-2], 0
		}},
	} {
		st := NewStore()
		ts, vals := genSeries(512)
		if err := st.Append("s", ts, vals, Options{PageSize: 256}); err != nil {
			t.Fatal(err)
		}
		ser, _ := st.Series("s")
		c.spoil(ser.Pages[1].Value)
		if _, _, err := st.ReadColumns("s"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadColumns error %v, want ErrCorrupt", c.name, err)
		}
		if err := st.Compact("s", Options{PageSize: 512}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Compact error %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestStoreConcurrentIngestAndQuery pins the serve-loop contract under
// the race detector: ingest goroutines append pages through
// Store.Append/AppendPages while query goroutines hold a *Series — the
// way the engine holds one after Store.Series returns — and read it
// through the accessor methods for the whole duration of the ingest.
func TestStoreConcurrentIngestAndQuery(t *testing.T) {
	st := NewStore()
	const (
		batches   = 50
		batchRows = 64
		readers   = 4
	)
	allTs, allVals := genSeries(batches * batchRows)

	// Publish both series with their first batch so readers can grab and
	// hold a *Series before the ingest traffic starts.
	for _, name := range []string{"ingest", "flushed"} {
		if err := st.Append(name, allTs[:batchRows], allVals[:batchRows], Options{PageSize: 16}); err != nil {
			t.Fatal(err)
		}
	}

	var wg, writers, readersUp sync.WaitGroup
	writersDone := make(chan struct{})
	readersUp.Add(readers)
	writers.Add(2)
	wg.Add(1)
	go func() { // the transport.Receive path: pre-encoded pages in
		defer wg.Done()
		defer writers.Done()
		readersUp.Wait()
		for b := 1; b < batches; b++ {
			off := b * batchRows
			pairs, err := EncodePages(allTs[off:off+batchRows], allVals[off:off+batchRows], Options{PageSize: 16})
			if err != nil {
				t.Error(err)
				return
			}
			if err := st.AppendPages("ingest", pairs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the buffered-flush path on a second series
		defer wg.Done()
		defer writers.Done()
		readersUp.Wait()
		for b := 1; b < batches; b++ {
			off := b * batchRows
			if err := st.Append("flushed", allTs[off:off+batchRows], allVals[off:off+batchRows], Options{PageSize: 16}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		writers.Wait()
		close(writersDone)
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() { // the engine path: hold the series, read until ingest ends
			defer wg.Done()
			serA, _ := st.Series("ingest")
			serB, _ := st.Series("flushed")
			readersUp.Done()
			for {
				for _, ser := range []*Series{serA, serB} {
					start, end := ser.TimeRange()
					for _, pp := range ser.PagesInRange(start, end) {
						if pp.Count() <= 0 {
							t.Error("empty page in range")
							return
						}
					}
					_ = ser.NumPoints()
					_ = ser.EncodedBytes()
				}
				select {
				case <-writersDone:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	for _, name := range []string{"ingest", "flushed"} {
		ser, ok := st.Series(name)
		if !ok || ser.NumPoints() != batches*batchRows {
			t.Fatalf("%s: points = %d, want %d", name, ser.NumPoints(), batches*batchRows)
		}
		if _, _, err := st.ReadColumns(name); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEncodePages times the bulk write path per row: jittered
// timestamps under ts2diff2 and a random walk under ts2diff, eight pages
// of DefaultPageSize rows.
func BenchmarkEncodePages(b *testing.B) {
	const n = 8 * DefaultPageSize
	rng := rand.New(rand.NewSource(1))
	ts, vals := make([]int64, n), make([]int64, n)
	v := int64(1_000_000)
	for i := range ts {
		ts[i] = int64(i)*1000 + rng.Int63n(500)
		v += rng.Int63n(201) - 100
		vals[i] = v
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePages(ts, vals, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
