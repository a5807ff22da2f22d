// Package rlbe implements the RLBE combined encoder (Table I row "RLBE"):
// first-order Delta, Run-length on the delta sequence, and Fibonacci
// (variable-width) packing of both the delta magnitudes and the run
// lengths.
//
// Each Delta-Repeat pair is written as two self-delimiting Fibonacci
// codewords: fib(zigzag(delta)+1) then fib(runLength). The "+1" lifts the
// zigzag code into Fibonacci's >= 1 domain. Because every codeword ends in
// the unique "11" pair, slices of the payload remain decodable from any
// codeword boundary — the property Section III-C exploits to split
// variable-width pages across cores.
package rlbe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
)

// Block is a parsed RLBE block.
type Block struct {
	Count   int
	First   int64
	NumRuns int
	Payload []byte // Fibonacci codewords: (delta, runlen) per run
}

// Encode builds an RLBE block in one pass over vals, writing each run's
// two codewords as the run ends. A delta of MinInt64 has no codeword
// (zigzag(Δ)+1 would be 2^64) and fails the encode.
func Encode(vals []int64) (*Block, error) {
	b := &Block{Count: len(vals)}
	if len(vals) == 0 {
		return b, nil
	}
	b.First = vals[0]
	w := bitio.NewWriter(len(vals)/8 + 8)
	for i := 1; i < len(vals); {
		d := vals[i] - vals[i-1]
		j := i + 1
		for j < len(vals) && vals[j]-vals[j-1] == d {
			j++
		}
		if d == math.MinInt64 {
			return nil, fmt.Errorf("rlbe: delta -2^63 at row %d has no codeword", i)
		}
		// Both codes are >= 1 here, so FibonacciEncode cannot fail.
		_ = encoding.FibonacciEncode(w, encoding.ZigZag(d)+1)
		_ = encoding.FibonacciEncode(w, uint64(j-i))
		b.NumRuns++
		i = j
	}
	b.Payload = w.Bytes()
	return b, nil
}

// Pairs decodes the payload back to Delta-Repeat pairs without flattening —
// the representation Section IV's fused aggregations consume directly. It
// is AppendPairs into a fresh slice.
func (b *Block) Pairs() ([]encoding.DeltaRun, error) {
	return b.AppendPairs(nil)
}

// AppendPairs appends the payload's Delta-Repeat pairs to dst, so a scan
// can decode page after page into one reused buffer. The runs must cover
// exactly Count rows (row 0 is First, so they total Count − 1; an empty
// block has none). Every reader of an RLBE page goes through this one
// check: corrupt codewords can claim runs far past Count, which a fused
// sum would add up and a flatten would materialize. On error the pairs
// appended so far are returned with it.
func (b *Block) AppendPairs(dst []encoding.DeltaRun) ([]encoding.DeltaRun, error) {
	if b.NumRuns < 0 || b.Count < 0 || b.Count == 0 && b.NumRuns > 0 {
		return dst, ErrCorrupt
	}
	// NumRuns comes from an untrusted header: cap the pre-allocation and
	// let append grow it as codewords actually arrive (each run costs at
	// least four payload bits, so a short buffer fails fast).
	dst = slices.Grow(dst, min(b.NumRuns, 1<<16))
	rows := min(b.Count, 1)
	var cw [128]uint64 // codewords of up to 64 runs: delta, length, delta, …
	pos := 0
	for done := 0; done < b.NumRuns; {
		n := min(b.NumRuns-done, len(cw)/2)
		var err error
		if pos, err = encoding.FibonacciDecodeInto(cw[:2*n], b.Payload, pos); err != nil {
			return dst, err
		}
		for k := 0; k < n; k++ {
			zz, run := cw[2*k], cw[2*k+1]
			// Every codeword decodes to at least 1 (the decoder refuses
			// a digit sum past 2^64), so zz-1 is a zigzag code.
			if run > uint64(b.Count-rows) {
				return dst, ErrCorrupt
			}
			rows += int(run)
			dst = append(dst, encoding.DeltaRun{Delta: encoding.UnZigZag(zz - 1), Count: int(run)})
		}
		done += n
	}
	if rows != b.Count {
		return dst, ErrCorrupt
	}
	return dst, nil
}

// Decode recovers the original values.
func (b *Block) Decode() ([]int64, error) {
	pairs, err := b.Pairs()
	if err != nil || b.Count == 0 {
		return nil, err
	}
	return encoding.DeltaRLEDecode(b.First, pairs), nil
}

const blockMagic = 0xB1

// ErrCorrupt reports a malformed serialized block.
var ErrCorrupt = errors.New("rlbe: corrupt block")

// Marshal serializes the block.
func (b *Block) Marshal() []byte {
	out := make([]byte, 0, 21+len(b.Payload))
	out = append(out, blockMagic)
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(b.Count))
	out = append(out, tmp[:4]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(b.First))
	out = append(out, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(b.NumRuns))
	out = append(out, tmp[:4]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(b.Payload)))
	out = append(out, tmp[:4]...)
	return append(out, b.Payload...)
}

// Unmarshal parses a serialized block into a new Block.
func Unmarshal(buf []byte) (*Block, error) {
	b := new(Block)
	if err := b.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalBinary parses a serialized block into b, which the caller
// owns, so a scan parses page after page without a heap block each.
// Payload aliases buf.
func (b *Block) UnmarshalBinary(buf []byte) error {
	if len(buf) < 21 || buf[0] != blockMagic {
		return ErrCorrupt
	}
	plen := int(binary.BigEndian.Uint32(buf[17:]))
	if len(buf) < 21+plen {
		return ErrCorrupt
	}
	*b = Block{
		Count:   int(binary.BigEndian.Uint32(buf[1:])),
		First:   int64(binary.BigEndian.Uint64(buf[5:])),
		NumRuns: int(binary.BigEndian.Uint32(buf[13:])),
		Payload: buf[21 : 21+plen],
	}
	return nil
}

type codec struct{}

func (codec) Name() string { return "rlbe" }

func (codec) Semantics() []encoding.Semantics {
	return []encoding.Semantics{
		encoding.SemanticsDelta, encoding.SemanticsRepeat, encoding.SemanticsPacking,
	}
}

func (codec) Encode(vals []int64) ([]byte, error) {
	b, err := Encode(vals)
	if err != nil {
		return nil, err
	}
	return b.Marshal(), nil
}

func (codec) Decode(block []byte) ([]int64, error) {
	b, err := Unmarshal(block)
	if err != nil {
		return nil, err
	}
	return b.Decode()
}

func init() { encoding.Register(codec{}) }
