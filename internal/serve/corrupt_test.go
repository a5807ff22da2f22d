package serve

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// transportFrame builds one transport wire frame:
// magic(2) type(1) seriesLen(2) series frameLen(4) payload crc(4).
func transportFrame(ftype byte, series string, payload []byte) []byte {
	b := []byte{0xE7, 0x5A, ftype}
	b = binary.BigEndian.AppendUint16(b, uint16(len(series)))
	b = append(b, series...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestIngestedCountMismatchIsCorrupt delivers, over TCP ingest with
// valid frame and page checksums, a page pair whose value payload holds
// 96 fewer rows than its header. /query must answer with the structured
// "corrupt" error — the pool worker that reads the page reports it
// instead of panicking — and the same server must stay healthy.
func TestIngestedCountMismatchIsCorrupt(t *testing.T) {
	st := storage.NewStore()
	e := engine.New(st, engine.ModeSerial)
	e.Workers = 2
	s := &Server{Engine: e, Store: st, MaxRows: 20}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeIngest(l) }()

	const rows = 4096
	ts, vals := make([]int64, rows), make([]int64, rows)
	for i := range ts {
		ts[i], vals[i] = int64(i+1)*1000, int64(i%13)
	}
	pairs, err := storage.EncodePages(ts, vals, storage.Options{PageSize: rows})
	if err != nil {
		t.Fatal(err)
	}
	short, err := ts2diff.Encode(vals[:rows-96], ts2diff.Order1)
	if err != nil {
		t.Fatal(err)
	}
	v := pairs[0].Value
	v.Data = short.Marshal()
	v.Header.Checksum = crc32.ChecksumIEEE(v.Data)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][]byte{transportFrame(0x01, "temp", storage.MarshalPagePair(pairs[0])), transportFrame(0x02, "", nil)} {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ser, ok := st.Series("temp"); ok && ser.NumPoints() == rows {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the page pair was never ingested")
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/query?q=SELECT+SUM(A)+FROM+temp")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	var qe queryError
	if err := json.Unmarshal(body, &qe); err != nil || res.StatusCode != 500 || qe.Kind != "corrupt" {
		t.Fatalf("SUM over a count-mismatched page: status %d, body %s (%v); want 500 kind corrupt", res.StatusCode, body, err)
	}
	res, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/healthz after the corrupt query: status %d", res.StatusCode)
	}
}
