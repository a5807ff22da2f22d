// Package bitio provides big-endian bit-level readers and writers.
//
// IoT encoders (TS2DIFF, Sprintz, RLBE, Gorilla, Chimp) write data bit by
// bit in big-endian order: the first bit written becomes the most
// significant bit of the first byte. Writer and Reader are the shared
// substrate for every combined encoder in this repository.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a Reader runs out of bits.
var ErrShortBuffer = errors.New("bitio: short buffer")

// ErrBitCount is returned when a read is asked for more than 64 bits at
// once. Bit counts on the decode path come from untrusted page headers,
// so this is an error, not a panic (nopanic-enforced).
var ErrBitCount = errors.New("bitio: bit count out of range")

// Writer accumulates bits most-significant-bit first into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // bits currently in cur (0..7)
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(bit uint) {
	w.cur = w.cur<<1 | byte(bit&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64]; wider counts are a programmer error (encoders
// choose n from value ranges they computed, never from wire data).
//
//etsqp:trusted
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	for n > 0 {
		free := 8 - w.nCur
		take := n
		if take > free {
			take = free
		}
		shift := n - take
		chunk := byte(v>>shift) & (1<<take - 1)
		w.cur = w.cur<<take | chunk
		w.nCur += take
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
		n -= take
	}
}

// WriteBytes appends whole bytes. It is only valid when the writer is
// byte-aligned; use Align first if necessary. Misuse is a programmer
// error on the encode path, hence the panic guard.
//
//etsqp:trusted
func (w *Writer) WriteBytes(p []byte) {
	if w.nCur != 0 {
		panic("bitio: WriteBytes on unaligned writer")
	}
	w.buf = append(w.buf, p...)
}

// Align pads the current byte with zero bits so the writer is byte-aligned.
func (w *Writer) Align() {
	if w.nCur != 0 {
		w.cur <<= 8 - w.nCur
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// BitLen reports the total number of bits written.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The writer remains usable; subsequent writes start a fresh byte.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// Reader consumes bits most-significant-bit first from a byte slice.
type Reader struct {
	buf []byte
	pos int // absolute bit position
}

// NewReader returns a Reader over buf starting at bit 0.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit reads a single bit. It shares no code with ReadBits: the tests
// use it as ReadBits's reference.
//
//etsqp:hotpath
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrShortBuffer
	}
	b := r.buf[r.pos>>3]
	bit := uint(b>>(7-uint(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

// ReadBits reads n bits (n in [0,64]) and returns them right-aligned.
// Counts above 64 return ErrBitCount: they can be induced by corrupt
// page headers, so the decode path must not crash on them.
//
// It is the one field extractor of the module: a single 8-byte
// big-endian load at the field's first byte, a shift and a mask. Fewer
// than 8 bytes before the end of the buffer are loaded through a
// zero-padded stack copy; the length check comes first, so padded bits
// are never returned. Only a field of more than 57 bits that starts
// mid-byte reaches into a ninth byte.
//
//etsqp:hotpath
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrBitCount
	}
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, ErrShortBuffer
	}
	i := r.pos >> 3
	off := uint(r.pos & 7)
	var w uint64
	if tail := r.buf[i:]; len(tail) >= 8 {
		w = binary.BigEndian.Uint64(tail)
	} else {
		var pad [8]byte
		copy(pad[:], tail)
		w = binary.BigEndian.Uint64(pad[:])
	}
	// The field is bits [off, off+n) of the window, counted from the MSB.
	v := w << off >> (64 - n)
	if spill := off + n; spill > 64 {
		v |= uint64(r.buf[i+8] >> (72 - spill))
	}
	r.pos += int(n)
	return v, nil
}

// Skip advances the read position by n bits.
func (r *Reader) Skip(n int) error {
	if r.pos+n > len(r.buf)*8 || r.pos+n < 0 {
		return ErrShortBuffer
	}
	r.pos += n
	return nil
}

// Align advances to the next byte boundary.
func (r *Reader) Align() {
	if rem := r.pos & 7; rem != 0 {
		r.pos += 8 - rem
	}
}

// Pos reports the current absolute bit position.
func (r *Reader) Pos() int { return r.pos }

// Seek sets the absolute bit position.
func (r *Reader) Seek(bitPos int) error {
	if bitPos < 0 || bitPos > len(r.buf)*8 {
		return ErrShortBuffer
	}
	r.pos = bitPos
	return nil
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }

// PeekBits reads n bits without consuming them.
func (r *Reader) PeekBits(n uint) (uint64, error) {
	save := r.pos
	v, err := r.ReadBits(n)
	r.pos = save
	return v, err
}
