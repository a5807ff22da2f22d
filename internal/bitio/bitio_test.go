package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestBigEndianByteLayout(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0b10110010, 8)
	w.WriteBits(0b1, 1)
	got := w.Bytes()
	want := []byte{0b10110010, 0b10000000}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %08b want %08b", got, want)
	}
}

func TestWriteBitsSpansBytes(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0x3FF, 10) // 1111111111
	w.WriteBits(0x000, 10)
	w.WriteBits(0x2AA, 10) // 1010101010
	r := NewReader(w.Bytes())
	for i, want := range []uint64{0x3FF, 0x000, 0x2AA} {
		got, err := r.ReadBits(10)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d: got %#x want %#x", i, got, want)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(vals []uint64, widthsSeed int64) bool {
		rng := rand.New(rand.NewSource(widthsSeed))
		w := NewWriter(len(vals) * 8)
		widths := make([]uint, len(vals))
		for i, v := range vals {
			n := uint(rng.Intn(64) + 1)
			widths[i] = n
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for i, v := range vals {
			n := widths[i]
			got, err := r.ReadBits(n)
			if err != nil {
				return false
			}
			want := v
			if n < 64 {
				want &= 1<<n - 1
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrShortBuffer {
		t.Fatalf("got %v want ErrShortBuffer", err)
	}
	// The failed read must not consume bits.
	if v, err := r.ReadBits(8); err != nil || v != 0xFF {
		t.Fatalf("got %#x/%v want 0xff/nil", v, err)
	}
	if _, err := r.ReadBit(); err != ErrShortBuffer {
		t.Fatalf("got %v want ErrShortBuffer", err)
	}
}

// readBitsByBit is ReadBits's reference: n calls of ReadBit, all or
// nothing like ReadBits itself.
func readBitsByBit(r *Reader, n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrBitCount
	}
	start := r.Pos()
	var v uint64
	for i := uint(0); i < n; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			r.pos = start
			return 0, err
		}
		v = v<<1 | uint64(bit)
	}
	return v, nil
}

// checkReadBits reads n bits from r with ReadBits and from ref (at the
// same position) bit by bit; values, errors and positions must agree.
func checkReadBits(t *testing.T, r, ref *Reader, n uint) {
	t.Helper()
	pos := r.Pos()
	want, wantErr := readBitsByBit(ref, n)
	got, err := r.ReadBits(n)
	if err != wantErr {
		t.Fatalf("%d bits at bit %d of %d bytes: ReadBits err %v, ReadBit err %v", n, pos, len(r.buf), err, wantErr)
	}
	if got != want {
		t.Fatalf("%d bits at bit %d of %d bytes: ReadBits %#x, ReadBit %#x", n, pos, len(r.buf), got, want)
	}
	if r.Pos() != ref.Pos() {
		t.Fatalf("%d bits at bit %d: ReadBits left pos %d, ReadBit %d", n, pos, r.Pos(), ref.Pos())
	}
}

// TestReadBitsMatchesReadBit reads every field shape the 8-byte window
// can meet — each bit offset, each count, at the start of the buffer
// and past it, with 0..9 bytes after the field's last byte so the
// short-tail copy, the exact fit and the ninth-byte spill all occur —
// and one bit more than the buffer holds.
func TestReadBitsMatchesReadBit(t *testing.T) {
	for _, lead := range []int{0, 3} {
		for off := 0; off < 8; off++ {
			for n := uint(0); n <= 65; n++ {
				for tail := 0; tail <= 9; tail++ {
					buf := make([]byte, lead+(off+int(n)+7)/8+tail)
					for i := range buf {
						buf[i] = byte((i+1)*0x9D ^ off*0x35 ^ int(n))
					}
					r, ref := NewReader(buf), NewReader(buf)
					start := lead*8 + off
					if r.Seek(start) != nil || ref.Seek(start) != nil {
						t.Fatalf("seek to bit %d of %d bytes", start, len(buf))
					}
					checkReadBits(t, r, ref, n)
					if err := r.Seek(start); err != nil {
						t.Fatal(err)
					}
					if over := uint(len(buf)*8-r.Pos()) + 1; over <= 64 {
						if _, err := r.ReadBits(over); err != ErrShortBuffer || r.Pos() != start {
							t.Fatalf("%d bits with %d left: err %v, pos %d -> %d", over, over-1, err, start, r.Pos())
						}
					}
				}
			}
		}
	}
}

// FuzzReadBits replays (count, skip) byte pairs over an arbitrary buffer
// against the bit-at-a-time reference; count 65 is the ErrBitCount case.
func FuzzReadBits(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89}, []byte{3, 0, 64, 1, 5, 0})
	f.Fuzz(func(t *testing.T, buf, ops []byte) {
		r, ref := NewReader(buf), NewReader(buf)
		for ; len(ops) >= 2; ops = ops[2:] {
			checkReadBits(t, r, ref, uint(ops[0])%66)
			if skip := int(ops[1]) % 32; r.Skip(skip) == nil {
				if err := ref.Skip(skip); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

func TestAlignWriter(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b101, 3)
	w.Align()
	w.WriteBits(0xAB, 8)
	got := w.Bytes()
	want := []byte{0b10100000, 0xAB}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x want %x", got, want)
	}
}

func TestAlignReader(t *testing.T) {
	r := NewReader([]byte{0b10100000, 0xAB})
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	r.Align()
	v, err := r.ReadBits(8)
	if err != nil || v != 0xAB {
		t.Fatalf("got %#x/%v want 0xab/nil", v, err)
	}
}

func TestSeekPeekSkip(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xDEAD, 16)
	r := NewReader(w.Bytes())
	if err := r.Skip(8); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadBits(8); v != 0xAD {
		t.Fatalf("got %#x want 0xad", v)
	}
	if err := r.Seek(4); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadBits(8); v != 0xEA {
		t.Fatalf("got %#x want 0xea", v)
	}
	if got := r.Pos(); got != 12 {
		t.Fatalf("pos got %d want 12", got)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xFF, 8)
	w.Reset()
	w.WriteBits(0x0F, 4)
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xF0}) {
		t.Fatalf("got %x want f0", got)
	}
}

func TestBitLen(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0, 13)
	if got := w.BitLen(); got != 13 {
		t.Fatalf("got %d want 13", got)
	}
}

func TestZeroWidthWrite(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0xFFFF, 0)
	if w.BitLen() != 0 {
		t.Fatalf("zero-width write produced %d bits", w.BitLen())
	}
}

// refWriter is the byte-at-a-time reference for Writer: it packs at most
// 8 bits per step into a partial byte and appends one byte at a time.
// It shares no code with Writer; FuzzWriteBits holds the two to the same
// bytes.
type refWriter struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // bits currently in cur (0..7)
}

func (w *refWriter) WriteBits(v uint64, n uint) {
	for n > 0 {
		take := min(n, 8-w.nCur)
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

func (w *refWriter) Align() {
	if w.nCur != 0 {
		w.WriteBits(0, 8-w.nCur)
	}
}

func (w *refWriter) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

// FuzzWriteBits writes a sequence of operations through Writer and
// refWriter — fields of every width 0-64 with arbitrary high bits,
// single bits, Align and Bytes — and fails unless the bit lengths agree
// after every step, the bytes agree at every Bytes, and a Reader reads
// every field back exactly. Each operation is one opcode byte (a width
// up to 64, then WriteBit, Align, Bytes) and 8 value bytes.
func FuzzWriteBits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		3, 0, 0, 0, 0, 0, 0, 0, 5,
		64, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67,
		65, 0, 0, 0, 0, 0, 0, 0, 1,
		66, 0, 0, 0, 0, 0, 0, 0, 0,
		61, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0xFF, 0, 0, 0, 0, 0, 0, 0,
		67, 0, 0, 0, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0, 0, 0x7F,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type field struct {
			op uint
			v  uint64
		}
		var w Writer
		var ref refWriter
		var fields []field
		for ; len(ops) >= 9; ops = ops[9:] {
			op, v := uint(ops[0])%68, binary.BigEndian.Uint64(ops[1:])
			switch {
			case op <= 64:
				w.WriteBits(v, op)
				ref.WriteBits(v, op)
				if op < 64 {
					v &= 1<<op - 1
				}
			case op == 65:
				w.WriteBit(uint(v))
				ref.WriteBits(v&1, 1)
				v &= 1
			case op == 66:
				w.Align()
				ref.Align()
			default:
				ref.Align()
				if got := w.Bytes(); !bytes.Equal(got, ref.buf) {
					t.Fatalf("after %d fields: Bytes %x, reference %x", len(fields), got, ref.buf)
				}
			}
			fields = append(fields, field{op, v})
			if w.BitLen() != ref.BitLen() {
				t.Fatalf("after %d fields: BitLen %d, reference %d", len(fields), w.BitLen(), ref.BitLen())
			}
		}
		ref.Align()
		buf := w.Bytes()
		if !bytes.Equal(buf, ref.buf) {
			t.Fatalf("Bytes %x, reference %x", buf, ref.buf)
		}
		r := NewReader(buf)
		for i, fl := range fields {
			var got uint64
			var err error
			switch {
			case fl.op <= 64:
				got, err = r.ReadBits(fl.op)
			case fl.op == 65:
				var bit uint
				bit, err = r.ReadBit()
				got = uint64(bit)
			default:
				r.Align()
				continue
			}
			if err != nil || got != fl.v {
				t.Fatalf("field %d (op %d): read %#x, %v; wrote %#x", i, fl.op, got, err, fl.v)
			}
		}
	})
}

func BenchmarkWriteBits10(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.BitLen() > 1<<22 {
			w.Reset()
		}
		w.WriteBits(uint64(i)&0x3FF, 10)
	}
}

func BenchmarkReadBits10(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 1<<14; i++ {
		w.WriteBits(uint64(i)&0x3FF, 10)
	}
	buf := w.Bytes()
	r := NewReader(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buf)*8-r.Pos() < 10 {
			r.Seek(0)
		}
		if _, err := r.ReadBits(10); err != nil {
			b.Fatal(err)
		}
	}
}

// readFieldsByBits is ReadFields's reference: one ReadBits call per
// field, rewound on the first error.
func readFieldsByBits(r *Reader, dst []int64, n uint) error {
	start := r.Pos()
	if n > 64 {
		return ErrBitCount
	}
	for i := range dst {
		v, err := r.ReadBits(n)
		if err != nil {
			r.pos = start
			return err
		}
		dst[i] = int64(v)
	}
	return nil
}

// checkReadFields reads count n-bit fields from r with ReadFields and
// from ref (at the same position) with the ReadBits loop; values, errors
// and positions must agree, and an error must leave r where it was.
func checkReadFields(t *testing.T, r, ref *Reader, count int, n uint) {
	t.Helper()
	pos := r.Pos()
	got, want := make([]int64, count), make([]int64, count)
	for i := range got {
		got[i] = -1 // a skipped store must show
	}
	err, wantErr := r.ReadFields(got, n), readFieldsByBits(ref, want, n)
	if err != wantErr {
		t.Fatalf("%d fields of %d bits at bit %d of %d bytes: ReadFields err %v, ReadBits err %v", count, n, pos, len(r.buf), err, wantErr)
	}
	if r.Pos() != ref.Pos() || (err != nil && r.Pos() != pos) {
		t.Fatalf("%d fields of %d bits at bit %d: ReadFields left pos %d, ReadBits %d (err %v)", count, n, pos, r.Pos(), ref.Pos(), err)
	}
	if err != nil {
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%d fields of %d bits at bit %d of %d bytes: field %d = %#x, ReadBits %#x", count, n, pos, len(r.buf), i, uint64(got[i]), uint64(want[i]))
		}
	}
}

// TestReadFieldsMatchesReadBits runs the bulk reader against the
// ReadBits loop over every width (65 is the ErrBitCount case), every
// start bit offset, run lengths on both sides of one, two and three
// 64-field groups, and 0..9 bytes after the run's last byte — and one
// field more than the buffer holds, which must fail without consuming.
func TestReadFieldsMatchesReadBits(t *testing.T) {
	for n := uint(0); n <= 65; n++ {
		for off := 0; off < 8; off++ {
			for _, count := range []int{0, 1, 63, 64, 65, 127, 128, 3*64 + 5} {
				for tail := 0; tail <= 9; tail++ {
					buf := make([]byte, (off+count*int(n%65)+7)/8+tail)
					for i := range buf {
						buf[i] = byte((i+1)*0x9D ^ off*0x35 ^ int(n) ^ i>>8)
					}
					r, ref := NewReader(buf), NewReader(buf)
					if r.Seek(off) != nil || ref.Seek(off) != nil {
						continue // an empty run in an empty buffer has no bit `off`
					}
					checkReadFields(t, r, ref, count, n)
					if n == 0 || n > 64 {
						continue
					}
					// One bit over: the most fields that fit, plus one.
					over := (len(buf)*8-off)/int(n) + 1
					if r.Seek(off) != nil || ref.Seek(off) != nil {
						t.Fatal("seek back")
					}
					checkReadFields(t, r, ref, over, n)
					if r.Pos() != off {
						t.Fatalf("%d fields of %d bits over %d bytes consumed %d bits", over, n, len(buf), r.Pos()-off)
					}
				}
			}
		}
	}
}

// TestReadFieldsTailGroup: a run whose last partial group ends exactly
// at the end of the buffer, fewer than 8n bytes after the group's start,
// as every page's last fields do. Widths up to 32 unpack it through a
// zero-padded copy, wider ones read it field by field; both must equal
// the ReadBits loop from the grid and from mid-group starts, and one
// field more must fail with ErrShortBuffer without consuming.
func TestReadFieldsTailGroup(t *testing.T) {
	for n := uint(1); n <= 40; n++ {
		for tail := 1; tail < 64; tail++ {
			for _, head := range []int{0, 3, 64} {
				bits := (head + tail) * int(n)
				buf := make([]byte, (bits+7)/8)
				for i := range buf {
					buf[i] = byte(i*0x9D ^ int(n)*0x35 ^ tail)
				}
				start := head * int(n)
				r, ref := NewReader(buf), NewReader(buf)
				if r.Seek(start) != nil || ref.Seek(start) != nil {
					t.Fatal("seek")
				}
				checkReadFields(t, r, ref, tail, n)
				if r.Pos() != bits {
					t.Fatalf("%d fields of %d bits from field %d: pos %d, want %d", tail, n, head, r.Pos(), bits)
				}
				if r.Seek(start) != nil {
					t.Fatal("seek back")
				}
				over := (len(buf)*8-start)/int(n) + 1
				if err := r.ReadFields(make([]int64, over), n); !errors.Is(err, ErrShortBuffer) || r.Pos() != start {
					t.Fatalf("%d fields of %d bits from field %d of %d bytes: err %v at pos %d, want ErrShortBuffer at %d", over, n, head, len(buf), err, r.Pos(), start)
				}
			}
		}
	}
}

// FuzzReadFields replays (width, count, skip) byte triples over an
// arbitrary buffer against the ReadBits loop; width 65 is the
// ErrBitCount case and counts reach past three 64-field groups.
func FuzzReadFields(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C, 0x0F}, 200), []byte{12, 130, 4, 3, 200, 0, 64, 2, 1})
	f.Fuzz(func(t *testing.T, buf, ops []byte) {
		r, ref := NewReader(buf), NewReader(buf)
		for ; len(ops) >= 3; ops = ops[3:] {
			checkReadFields(t, r, ref, int(ops[1]), uint(ops[0])%66)
			if skip := int(ops[2]) % 32; r.Skip(skip) == nil {
				if err := ref.Skip(skip); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestReadFieldsAllocs: the bulk reader decodes into caller memory.
func TestReadFieldsAllocs(t *testing.T) {
	dst := make([]int64, 1000)
	buf := make([]byte, len(dst)*40/8+8)
	for _, n := range []uint{0, 5, 12, 32, 40} {
		r := NewReader(buf)
		if a := testing.AllocsPerRun(50, func() {
			if r.Seek(int(n)) != nil || r.ReadFields(dst, n) != nil {
				t.Fatal("read failed")
			}
		}); a != 0 {
			t.Fatalf("ReadFields(%d bits) allocates %.1f/op", n, a)
		}
	}
}

// BenchmarkReadFields times the bulk reader against the ReadBits loop it
// stands in for, 1 024 fields per call from a byte-aligned start; the
// ns/field metric is what EXPERIMENTS.md sets against Lemire & Boytsov's
// 0.25-0.5 ns for scalar width-specialised unpack.
func BenchmarkReadFields(b *testing.B) {
	dst := make([]int64, 1024)
	buf := make([]byte, len(dst)*8)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	perField := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/field")
	}
	for _, n := range []uint{4, 8, 12, 16, 20, 31, 32, 40} {
		b.Run(fmt.Sprintf("bulk/w%02d", n), func(b *testing.B) {
			r := NewReader(buf)
			for i := 0; i < b.N; i++ {
				if r.Seek(0) != nil || r.ReadFields(dst, n) != nil {
					b.Fatal("read failed")
				}
			}
			perField(b)
		})
		b.Run(fmt.Sprintf("readbits/w%02d", n), func(b *testing.B) {
			r := NewReader(buf)
			for i := 0; i < b.N; i++ {
				if r.Seek(0) != nil || readFieldsByBits(r, dst, n) != nil {
					b.Fatal("read failed")
				}
			}
			perField(b)
		})
	}
}
