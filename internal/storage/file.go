package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// TsFile-like container: a magic header, a series count, and for each
// series its name and length-prefixed pages. All integers big-endian.
var fileMagic = [6]byte{'E', 'T', 'S', 'Q', 'P', '1'}

// WriteFile persists the whole store to path.
func (s *Store) WriteFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if err := s.writeTo(w); err != nil {
		return err
	}
	return w.Flush()
}

// writeTo streams the store in file format.
func (s *Store) writeTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := w.Write(fileMagic[:]); err != nil {
		return err
	}
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n)
	}
	// Deterministic output: sorted series order.
	sort.Strings(names)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(names)))
	if _, err := w.Write(tmp[:]); err != nil {
		return err
	}
	for _, name := range names {
		pages := s.series[name].pagesSnapshot()
		binary.BigEndian.PutUint32(tmp[:], uint32(len(name)))
		if _, err := w.Write(tmp[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, name); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(tmp[:], uint32(len(pages)))
		if _, err := w.Write(tmp[:]); err != nil {
			return err
		}
		for _, pp := range pages {
			buf := marshalPage(nil, pp.Time)
			buf = marshalPage(buf, pp.Value)
			binary.BigEndian.PutUint32(tmp[:], uint32(len(buf)))
			if _, err := w.Write(tmp[:]); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadFile loads a store previously written with WriteFile.
func ReadFile(path string) (*Store, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBytes(raw)
}

// ReadBytes parses the file format from memory.
func ReadBytes(raw []byte) (*Store, error) {
	if len(raw) < len(fileMagic)+4 || string(raw[:6]) != string(fileMagic[:]) {
		return nil, fmt.Errorf("storage: bad file magic")
	}
	off := 6
	u32 := func() (int, error) {
		if off+4 > len(raw) {
			return 0, io.ErrUnexpectedEOF
		}
		v := int(binary.BigEndian.Uint32(raw[off:]))
		off += 4
		return v, nil
	}
	nSeries, err := u32()
	if err != nil {
		return nil, err
	}
	st := NewStore()
	for i := 0; i < nSeries; i++ {
		nameLen, err := u32()
		if err != nil {
			return nil, err
		}
		if off+nameLen > len(raw) {
			return nil, io.ErrUnexpectedEOF
		}
		name := string(raw[off : off+nameLen])
		off += nameLen
		nPages, err := u32()
		if err != nil {
			return nil, err
		}
		var pages []PagePair
		for p := 0; p < nPages; p++ {
			pairLen, err := u32()
			if err != nil {
				return nil, err
			}
			if off+pairLen > len(raw) {
				return nil, io.ErrUnexpectedEOF
			}
			pp, err := UnmarshalPagePair(raw[off : off+pairLen])
			if err != nil {
				return nil, err
			}
			off += pairLen
			pages = append(pages, pp)
		}
		ser := &Series{Name: name}
		ser.setPages(pages)
		st.putSeries(name, ser)
	}
	return st, nil
}
