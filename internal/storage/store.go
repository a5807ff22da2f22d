package storage

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"etsqp/internal/encoding"
	"etsqp/internal/obs"
)

// Defaults for series ingestion.
const (
	// DefaultPageSize mirrors IoTDB's points-per-page order of magnitude;
	// small enough that short buffered series still flush (Section I's
	// flexibility requirement).
	DefaultPageSize = 4096
	// DefaultTimeCodec encodes timestamps with second-order deltas
	// (regular intervals pack to zero width).
	DefaultTimeCodec = "ts2diff2"
	// DefaultValueCodec encodes sensor values with first-order deltas.
	DefaultValueCodec = "ts2diff"
)

// Options configures how Append encodes a series.
type Options struct {
	PageSize   int    // points per page; DefaultPageSize if zero
	TimeCodec  string // codec for the timestamp column
	ValueCodec string // codec for the value column
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.TimeCodec == "" {
		o.TimeCodec = DefaultTimeCodec
	}
	if o.ValueCodec == "" {
		o.ValueCodec = DefaultValueCodec
	}
	return o
}

// Series is one stored time series: pages of (timestamp, value) columns.
//
// mu guards Pages: a *Series handed out by Store.Series may be queried
// (PagesInRange, TimeRange, NumPoints, ...) while ingest goroutines
// append through Store.Append/AppendPages, so the accessor methods take
// mu and the store's mutators hold it while changing Pages. The
// contract is machine-checked: every read of Pages must hold mu (RLock
// suffices) and every write the write lock — loaders build page lists
// locally and publish them through setPages.
type Series struct {
	Name  string
	Pages []PagePair //etsqp:guardedby mu — snapshot via pagesSnapshot, publish via setPages

	mu sync.RWMutex
}

// pagesSnapshot returns a stable view of the page list. Mutators only
// append past the snapshot's length or swap in a freshly built slice
// (Compact); existing elements are never written in place, so the
// returned header can be read without holding the lock.
func (s *Series) pagesSnapshot() []PagePair {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Pages
}

// NumPages reports the number of stored pages.
func (s *Series) NumPages() int { return len(s.pagesSnapshot()) }

// setPages publishes a fully built page list — the loaders' single
// write to a series they are about to share.
func (s *Series) setPages(pages []PagePair) {
	s.mu.Lock()
	s.Pages = pages
	s.mu.Unlock()
}

// NumPoints sums the page counts.
func (s *Series) NumPoints() int {
	n := 0
	for _, pp := range s.pagesSnapshot() {
		n += pp.Count()
	}
	return n
}

// TimeRange returns the series' covered [start, end] time range.
func (s *Series) TimeRange() (start, end int64) {
	pages := s.pagesSnapshot()
	if len(pages) == 0 {
		return 0, 0
	}
	return pages[0].StartTime(), pages[len(pages)-1].EndTime()
}

// EncodedBytes sums the payload sizes of all pages (the I/O volume the
// throughput benchmarks charge against each encoder).
func (s *Series) EncodedBytes() int {
	n := 0
	for _, pp := range s.pagesSnapshot() {
		n += len(pp.Time.Data) + len(pp.Value.Data)
	}
	return n
}

// Store is an in-memory collection of series (the receiving-buffer side of
// an IoT database). It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	series map[string]*Series //etsqp:guardedby mu

	// onMutate callbacks run after a successful mutation of a series'
	// page list (Append, AppendPages, Compact), outside the store and
	// series locks. The execution layer registers its decoded-page cache
	// invalidation here. Registered during single-goroutine setup only
	// (see OnMutate), so the slice itself needs no lock.
	onMutate []func(series string)
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{series: make(map[string]*Series)}
}

// OnMutate registers fn to run after every successful mutation of a
// series' page list, with the series name. Callbacks run outside the
// store and series locks (so they may call back into the store) but
// before the mutating call returns, so a caller that mutates and then
// queries observes the callback's effect. Registration is not safe
// concurrently with mutations; register callbacks during setup.
func (s *Store) OnMutate(fn func(series string)) {
	s.onMutate = append(s.onMutate, fn)
}

// notifyMutate runs the registered mutation callbacks. Call with no
// store or series locks held.
func (s *Store) notifyMutate(series string) {
	for _, fn := range s.onMutate {
		fn(series)
	}
}

// EncodePages encodes aligned (ts, vals) columns into page pairs without
// touching a store — the building block Append and the benchmarks share.
func EncodePages(ts, vals []int64, opts Options) ([]PagePair, error) {
	if len(ts) != len(vals) {
		return nil, fmt.Errorf("storage: column length mismatch %d vs %d", len(ts), len(vals))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			return nil, fmt.Errorf("storage: timestamps not strictly increasing at row %d", i)
		}
	}
	opts = opts.withDefaults()
	timeCodec, err := encoding.Lookup(opts.TimeCodec)
	if err != nil {
		return nil, err
	}
	valueCodec, err := encoding.Lookup(opts.ValueCodec)
	if err != nil {
		return nil, err
	}
	var pairs []PagePair
	for off := 0; off < len(ts); off += opts.PageSize {
		end := min(off+opts.PageSize, len(ts))
		tCol, vCol := ts[off:end], vals[off:end]
		tData, err := timeCodec.Encode(tCol)
		if err != nil {
			return nil, err
		}
		vData, err := valueCodec.Encode(vCol)
		if err != nil {
			return nil, err
		}
		minV, maxV := vCol[0], vCol[0]
		var sumV, overflow int64 // overflow's sign bit: some partial sum left int64
		for _, v := range vCol {
			minV, maxV = min(minV, v), max(maxV, v)
			s := sumV + v
			overflow |= (sumV ^ s) & (v ^ s)
			sumV = s
		}
		pairs = append(pairs, PagePair{
			Time: &Page{
				Header: PageHeader{
					Kind: ColumnTime, Codec: opts.TimeCodec, Count: len(tCol),
					StartTime: tCol[0], EndTime: tCol[len(tCol)-1],
					MinValue: tCol[0], MaxValue: tCol[len(tCol)-1],
					Checksum: crc32.ChecksumIEEE(tData),
				},
				Data: tData,
			},
			Value: &Page{
				Header: PageHeader{
					Kind: ColumnValue, Codec: opts.ValueCodec, Count: len(vCol),
					StartTime: tCol[0], EndTime: tCol[len(tCol)-1],
					MinValue: minV, MaxValue: maxV,
					SumValue: sumV, SumValid: overflow >= 0,
					Checksum: crc32.ChecksumIEEE(vData),
				},
				Data: vData,
			},
		})
	}
	obs.StoragePagesEncoded.Add(int64(len(pairs)))
	return pairs, nil
}

// Append encodes and appends (ts, vals) rows to the named series. The new
// rows must start after the series' current end time.
func (s *Store) Append(name string, ts, vals []int64, opts Options) error {
	pairs, err := EncodePages(ts, vals, opts)
	if err != nil {
		return err
	}
	if err := s.appendPairs(name, pairs); err != nil {
		return err
	}
	s.notifyMutate(name)
	return nil
}

// appendPairs appends page pairs under the store and series locks,
// releasing both before returning so mutation callbacks can run.
func (s *Store) appendPairs(name string, pairs []PagePair) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.series[name]
	if !ok {
		ser = &Series{Name: name}
		s.series[name] = ser
	}
	ser.mu.Lock()
	defer ser.mu.Unlock()
	for _, pp := range pairs {
		if err := checkPair(pp); err != nil {
			return err
		}
		if len(ser.Pages) > 0 {
			if last := ser.Pages[len(ser.Pages)-1].EndTime(); pp.StartTime() <= last {
				return fmt.Errorf("storage: append to %q out of time order (%d <= %d)",
					name, pp.StartTime(), last)
			}
		}
		ser.Pages = append(ser.Pages, pp)
	}
	return nil
}

// putSeries publishes a loader-built series into the store's map.
func (s *Store) putSeries(name string, ser *Series) {
	s.mu.Lock()
	s.series[name] = ser
	s.mu.Unlock()
}

// Series returns the named series.
func (s *Store) Series(name string) (*Series, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser, ok := s.series[name]
	return ser, ok
}

// Names lists the stored series in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for n := range s.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ReadColumns decodes an entire series back to flat (ts, vals) columns —
// the reference path tests compare the pipeline engine against.
func (s *Store) ReadColumns(name string) (ts, vals []int64, err error) {
	ser, ok := s.Series(name)
	if !ok {
		return nil, nil, fmt.Errorf("storage: unknown series %q", name)
	}
	for _, pp := range ser.pagesSnapshot() {
		t, err := pp.Time.Decode()
		if err != nil {
			return nil, nil, err
		}
		v, err := pp.Value.Decode()
		if err != nil {
			return nil, nil, err
		}
		ts = append(ts, t...)
		vals = append(vals, v...)
	}
	return ts, vals, nil
}

// PagesInRange is PagesIn over a snapshot of the series' pages.
func (s *Series) PagesInRange(t1, t2 int64) []PagePair {
	return PagesIn(s.pagesSnapshot(), t1, t2)
}

// PagesIn returns the sub-slice of the time-ordered pages whose time
// range intersects [t1, t2], located by binary search — the index lookup
// a query uses instead of scanning every page header.
func PagesIn(pages []PagePair, t1, t2 int64) []PagePair {
	if t2 < t1 {
		return nil
	}
	// First page whose end reaches t1.
	lo := sort.Search(len(pages), func(i int) bool {
		return pages[i].EndTime() >= t1
	})
	// First page that starts after t2.
	hi := sort.Search(len(pages), func(i int) bool {
		return pages[i].StartTime() > t2
	})
	if lo >= hi {
		return nil
	}
	return pages[lo:hi]
}

// Compact re-encodes a series into uniform pages of the given options —
// merging the small blocks that incremental flushing produces (the
// write-path counterpart of Section VI-C's memory management: many short
// buffered flushes, later consolidated).
func (s *Store) Compact(name string, opts Options) error {
	ts, vals, err := s.ReadColumns(name)
	if err != nil {
		return err
	}
	pairs, err := EncodePages(ts, vals, opts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	ser, ok := s.series[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("storage: unknown series %q", name)
	}
	ser.mu.Lock()
	ser.Pages = pairs
	ser.mu.Unlock()
	s.mu.Unlock()
	s.notifyMutate(name)
	return nil
}

// AppendPages appends already-encoded page pairs to a series — the
// server-side ingest path for pages that arrive encoded over the
// network (Section I: data is delivered compressed, never re-encoded).
func (s *Store) AppendPages(name string, pairs []PagePair) error {
	if err := s.appendPairs(name, pairs); err != nil {
		return err
	}
	s.notifyMutate(name)
	return nil
}
