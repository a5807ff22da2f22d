// Package bitio provides big-endian bit-level readers and writers.
//
// IoT encoders (TS2DIFF, Sprintz, RLBE, Gorilla, Chimp) write data bit by
// bit in big-endian order: the first bit written becomes the most
// significant bit of the first byte. Writer and Reader are the shared
// substrate for every combined encoder in this repository.
package bitio

//go:generate go run ./genunpack

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
// Bits collect in a 64-bit accumulator that is stored as one big-endian
// 8-byte word each time it fills: the write-side mirror of ReadBits's
// 8-byte window. A field costs a shift and an or, and a word store every
// 64 bits. Only whole words and, at Align, whole bytes are ever
// appended, so a buffer sized for the bits to be written never grows.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits in the low nAcc bits; bits above are stale
	nAcc uint   // pending bit count, 0..63
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit.
//
//etsqp:inline
func (w *Writer) WriteBit(bit uint) {
	if w.nAcc < 63 {
		w.acc = w.acc<<1 | uint64(bit&1)
		w.nAcc++
		return
	}
	w.writeWord(uint64(bit&1), 1)
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64]; wider counts are a programmer error (encoders
// choose n from value ranges they computed, never from wire data), and
// writeWord panics on them.
//
//etsqp:inline
func (w *Writer) WriteBits(v uint64, n uint) {
	if n < 64-w.nAcc {
		w.acc = w.acc<<n | v&(1<<n-1)
		w.nAcc += n
		return
	}
	w.writeWord(v, n)
}

// writeWord completes the accumulator's word with the high bits of the
// n-bit field v, stores it, and keeps the field's remaining low bits
// pending (nAcc+n >= 64).
//
//etsqp:trusted
func (w *Writer) writeWord(v uint64, n uint) {
	if n > 64 {
		panic(bitCountError(n))
	}
	v &= 1<<n - 1
	rest := w.nAcc + n - 64 // field bits left for the next word, 0..63
	// A shift by 64 (nAcc == 0) yields 0, dropping the stale bits.
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(64-w.nAcc)|v>>rest)
	w.acc, w.nAcc = v, rest
}

// bitCountError is WriteBits's panic value for a count past 64; a type,
// not a formatted string, so the write path inlines.
type bitCountError uint

func (n bitCountError) Error() string {
	return fmt.Sprintf("bitio: WriteBits n=%d out of range", uint(n))
}

// Align pads the pending bits with zeros to a byte boundary and appends
// them, so the writer is byte-aligned.
func (w *Writer) Align() {
	if w.nAcc == 0 {
		return
	}
	pad := -w.nAcc & 7
	acc := w.acc << pad
	for n := w.nAcc + pad; n > 0; n -= 8 {
		w.buf = append(w.buf, byte(acc>>(n-8)))
	}
	w.nAcc = 0
}

// BitLen reports the total number of bits written.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nAcc) }

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The writer remains usable; subsequent writes start a fresh byte.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nAcc = 0, 0
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

// ReadFields reads len(dst) consecutive n-bit fields (n in [0,64]) into
// dst, right-aligned: the bulk form of ReadBits, with the same answers
// and errors as that many ReadBits calls except that it is all or
// nothing — on ErrBitCount or ErrShortBuffer nothing is consumed. Fields
// are stored as int64 because every bulk consumer adds them to a running
// int64 (a delta, a prefix, a sum); only a 64-bit field can come out
// negative.
//
// The count and the whole run's bit extent are validated once. Fields
// up to the first byte boundary are read with ReadBits; from there every
// group of 64 fields of at most 32 bits is n big-endian 8-byte words,
// unpacked by the width's generated straight-line kernel (unpack_gen.go)
// with no per-field bounds test, error return or position store. A last
// partial group is unpacked whole into a stack buffer and its leading
// fields copied; when the buffer ends before the group's 8n bytes, the
// kernel reads a zero-padded stack copy of what is left, whose padding
// lands only in fields past the run. Every field wider than 32 bits is
// read with ReadBits again.
//
//etsqp:hotpath
//etsqp:noescape
func (r *Reader) ReadFields(dst []int64, n uint) error {
	if n > 64 {
		return ErrBitCount
	}
	if n == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	if len(dst) > (len(r.buf)*8-r.pos)/int(n) {
		return ErrShortBuffer
	}
	i := 0
	if n <= maxUnpackWidth {
		for ; i < len(dst) && r.pos&7 != 0; i++ {
			v, _ := r.ReadBits(n) // cannot fail: the extent is validated
			dst[i] = int64(v)
		}
		head, src := i, r.buf[r.pos>>3:]
		for ; len(dst)-i >= 64; i += 64 {
			unpack64((*[64]int64)(dst[i:i+64]), src, n)
			src = src[8*n:]
		}
		if rest := dst[i:]; len(rest) > 0 {
			if len(src) < 8*int(n) {
				var pad [8 * maxUnpackWidth]byte
				copy(pad[:], src)
				src = pad[:]
			}
			var group [64]int64
			unpack64(&group, src, n)
			i += copy(rest, group[:])
		}
		r.pos += (i - head) * int(n)
	}
	for ; i < len(dst); i++ {
		v, _ := r.ReadBits(n)
		dst[i] = int64(v)
	}
	return nil
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
