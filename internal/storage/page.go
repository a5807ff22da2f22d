// Package storage implements the IoTDB-like storage substrate the query
// pipelines read from: each time series is stored as a sequence of pages,
// every page encoded separately with a private header carrying the
// statistics Sections III and V rely on — first value, packing parameters,
// counts, time range and value bounds.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"etsqp/internal/encoding"
	"etsqp/internal/obs"
)

// ColumnKind distinguishes the timestamp column from value columns.
type ColumnKind uint8

// Column kinds.
const (
	ColumnTime ColumnKind = iota
	ColumnValue
)

// PageHeader carries the per-page metadata that decoding pipelines and
// pruning rules consume without touching the payload.
type PageHeader struct {
	Kind      ColumnKind
	Codec     string // registry name of the combined encoder
	Count     int    // number of data points
	StartTime int64  // first timestamp covered by the page
	EndTime   int64  // last timestamp covered by the page
	MinValue  int64  // column statistics for value pruning
	MaxValue  int64
	// SumValue is the exact column sum when SumValid — the statistic
	// that lets SUM/AVG over fully-covered pages skip the payload
	// entirely (IoTDB-style statistics-level aggregation).
	SumValue int64
	SumValid bool
	// Checksum is the CRC-32 (IEEE) of the payload, written at encode
	// time and verified before decoding so bit rot surfaces as a clear
	// error instead of silently wrong values.
	Checksum uint32
}

// Page is one encoded column chunk.
type Page struct {
	Header PageHeader
	Data   []byte // self-contained codec block
}

// VerifyChecksum reports whether the payload matches the stored CRC.
// Pages built before checksumming (Checksum == 0 with data) are accepted.
func (p *Page) VerifyChecksum() error {
	if p.Header.Checksum == 0 {
		return nil
	}
	if got := crc32.ChecksumIEEE(p.Data); got != p.Header.Checksum {
		return fmt.Errorf("storage: page checksum mismatch (got %08x want %08x): %w",
			got, p.Header.Checksum, ErrCorrupt)
	}
	return nil
}

// Decode recovers the page's column values via the registered codec,
// verifying the payload checksum first.
func (p *Page) Decode() ([]int64, error) {
	if err := p.VerifyChecksum(); err != nil {
		return nil, err
	}
	obs.StoragePagesRead.Inc()
	obs.StorageBytesScanned.Add(int64(len(p.Data)))
	c, err := encoding.Lookup(p.Header.Codec)
	if err != nil {
		return nil, err
	}
	vals, err := c.Decode(p.Data)
	if err := p.PayloadRows(len(vals), err); err != nil {
		return nil, err
	}
	return vals, nil
}

// PayloadRows is the one check every payload parse passes through, given
// the rows the parse found and its error: a payload that fails to parse,
// or holds another number of rows than the header (which the checksum
// does not cover), makes the page corrupt. Without it a reader would
// answer over the rows the payload happens to hold, or index past them.
func (p *Page) PayloadRows(rows int, err error) error {
	if err == nil && rows != p.Header.Count {
		err = fmt.Errorf("%d rows, header %d", rows, p.Header.Count)
	}
	if err != nil {
		return fmt.Errorf("storage: %s payload: %w: %w", p.Header.Codec, err, ErrCorrupt)
	}
	return nil
}

// PagePair groups the timestamp page and value page covering the same rows
// of one series; the pipeline decodes them in lock-step (Figure 2).
type PagePair struct {
	Time  *Page
	Value *Page
}

// Count returns the number of rows covered by the pair.
func (pp PagePair) Count() int { return pp.Time.Header.Count }

// StartTime and EndTime expose the pair's time range for merge nodes.
func (pp PagePair) StartTime() int64 { return pp.Time.Header.StartTime }

// EndTime reports the last timestamp covered by the pair.
func (pp PagePair) EndTime() int64 { return pp.Time.Header.EndTime }

// ErrCorrupt reports a malformed serialized page.
var ErrCorrupt = errors.New("storage: corrupt page")

// marshalPage appends the page wire format to dst.
func marshalPage(dst []byte, p *Page) []byte {
	var tmp [8]byte
	dst = append(dst, byte(p.Header.Kind))
	dst = append(dst, byte(len(p.Header.Codec)))
	dst = append(dst, p.Header.Codec...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(p.Header.Count))
	dst = append(dst, tmp[:4]...)
	for _, v := range []int64{p.Header.StartTime, p.Header.EndTime, p.Header.MinValue, p.Header.MaxValue, p.Header.SumValue} {
		binary.BigEndian.PutUint64(tmp[:], uint64(v))
		dst = append(dst, tmp[:]...)
	}
	if p.Header.SumValid {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	binary.BigEndian.PutUint32(tmp[:4], p.Header.Checksum)
	dst = append(dst, tmp[:4]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(p.Data)))
	dst = append(dst, tmp[:4]...)
	return append(dst, p.Data...)
}

// unmarshalPage parses one page from buf, returning the page and the
// number of bytes consumed.
func unmarshalPage(buf []byte) (*Page, int, error) {
	if len(buf) < 2 {
		return nil, 0, ErrCorrupt
	}
	p := &Page{Header: PageHeader{Kind: ColumnKind(buf[0])}}
	nameLen := int(buf[1])
	off := 2
	if len(buf) < off+nameLen+4+45+4 {
		return nil, 0, ErrCorrupt
	}
	p.Header.Codec = string(buf[off : off+nameLen])
	off += nameLen
	p.Header.Count = int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	read := func() int64 {
		v := int64(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		return v
	}
	p.Header.StartTime = read()
	p.Header.EndTime = read()
	p.Header.MinValue = read()
	p.Header.MaxValue = read()
	p.Header.SumValue = read()
	p.Header.SumValid = buf[off] == 1
	off++
	p.Header.Checksum = binary.BigEndian.Uint32(buf[off:])
	off += 4
	dataLen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if len(buf) < off+dataLen {
		return nil, 0, ErrCorrupt
	}
	p.Data = buf[off : off+dataLen]
	return p, off + dataLen, nil
}

// MarshalPagePair serializes a page pair (used by the network transport
// and the file container alike).
func MarshalPagePair(pp PagePair) []byte {
	buf := marshalPage(nil, pp.Time)
	return marshalPage(buf, pp.Value)
}

// UnmarshalPagePair parses a serialized page pair.
func UnmarshalPagePair(buf []byte) (PagePair, error) {
	tp, n, err := unmarshalPage(buf)
	if err != nil {
		return PagePair{}, err
	}
	vp, _, err := unmarshalPage(buf[n:])
	if err != nil {
		return PagePair{}, err
	}
	pp := PagePair{Time: tp, Value: vp}
	if err := checkPair(pp); err != nil {
		return PagePair{}, err
	}
	return pp, nil
}

// checkPair refuses a page pair whose columns disagree on their row
// count: the pipelines read the two in lock-step, row for row.
func checkPair(pp PagePair) error {
	if t, v := pp.Time.Header.Count, pp.Value.Header.Count; t != v {
		return fmt.Errorf("storage: page pair of %d timestamps and %d values: %w", t, v, ErrCorrupt)
	}
	return nil
}
