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

// Encode builds an RLBE block.
func Encode(vals []int64) (*Block, error) {
	b := &Block{Count: len(vals)}
	if len(vals) == 0 {
		return b, nil
	}
	first, pairs := encoding.DeltaRLEEncode(vals)
	b.First = first
	b.NumRuns = len(pairs)
	w := bitio.NewWriter(len(pairs) * 4)
	for _, p := range pairs {
		if err := encoding.FibonacciEncode(w, encoding.ZigZag(p.Delta)+1); err != nil {
			return nil, err
		}
		if err := encoding.FibonacciEncode(w, uint64(p.Count)); err != nil {
			return nil, err
		}
	}
	b.Payload = w.Bytes()
	return b, nil
}

// Pairs decodes the payload back to Delta-Repeat pairs without flattening —
// the representation Section IV's fused aggregations consume directly.
// The runs must cover exactly Count rows (row 0 is First, so they total
// Count − 1; an empty block has none). Every reader of an RLBE page goes
// through this one check: corrupt codewords can claim runs far past
// Count, which a fused sum would add up and a flatten would materialize.
func (b *Block) Pairs() ([]encoding.DeltaRun, error) {
	if b.NumRuns < 0 || b.Count < 0 || b.Count == 0 && b.NumRuns > 0 {
		return nil, ErrCorrupt
	}
	r := bitio.NewReader(b.Payload)
	// NumRuns comes from an untrusted header: cap the pre-allocation and
	// let append grow it as codewords actually arrive (each run costs at
	// least four payload bits, so a short buffer fails fast).
	pairs := make([]encoding.DeltaRun, 0, min(b.NumRuns, 1<<16))
	rows := min(b.Count, 1)
	for i := 0; i < b.NumRuns; i++ {
		zz, err := encoding.FibonacciDecode(r)
		if err != nil {
			return nil, err
		}
		run, err := encoding.FibonacciDecode(r)
		if err != nil {
			return nil, err
		}
		if run > uint64(b.Count-rows) {
			return nil, ErrCorrupt
		}
		rows += int(run)
		pairs = append(pairs, encoding.DeltaRun{Delta: encoding.UnZigZag(zz - 1), Count: int(run)})
	}
	if rows != b.Count {
		return nil, ErrCorrupt
	}
	return pairs, nil
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

// Unmarshal parses a serialized block.
func Unmarshal(buf []byte) (*Block, error) {
	if len(buf) < 21 || buf[0] != blockMagic {
		return nil, ErrCorrupt
	}
	b := &Block{
		Count:   int(binary.BigEndian.Uint32(buf[1:])),
		First:   int64(binary.BigEndian.Uint64(buf[5:])),
		NumRuns: int(binary.BigEndian.Uint32(buf[13:])),
	}
	plen := int(binary.BigEndian.Uint32(buf[17:]))
	if len(buf) < 21+plen {
		return nil, ErrCorrupt
	}
	b.Payload = buf[21 : 21+plen]
	return b, nil
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
