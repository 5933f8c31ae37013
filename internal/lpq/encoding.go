// Package lpq implements "Lambada Parquet", a from-scratch columnar file
// format with the properties the paper's scan operator exploits (§4.3.2):
//
//   - data stored in row groups of column chunks, each independently
//     readable with one ranged request;
//   - a footer holding the schema, per-column-chunk offsets, and optional
//     min/max statistics enabling row-group pruning on pushed-down
//     predicates;
//   - light-weight encodings (run-length, delta, dictionary) and an
//     optional heavy-weight compression scheme (GZIP) per column chunk.
//
// The layout is:
//
//	[column chunk bytes ...]* [footer] [footerLen uint32] [magic "LPQ1"]
//
// All integers in the footer are unsigned varints; values are little-endian.
package lpq

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"lambada/internal/columnar"
)

// Encoding identifies how a column chunk's values are serialized.
type Encoding uint8

// Supported encodings.
const (
	Plain Encoding = iota // fixed-width values
	RLE                   // (run length, value) pairs
	Delta                 // zigzag-varint deltas, for sorted or smooth ints
	Dict                  // dictionary + varint indices
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case RLE:
		return "RLE"
	case Delta:
		return "DELTA"
	case Dict:
		return "DICT"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("lpq: corrupt varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.b) {
		return nil, fmt.Errorf("lpq: truncated data: need %d bytes at %d, have %d", n, r.pos, len(r.b))
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) remaining() int { return len(r.b) - r.pos }

// EncodeColumn serializes a vector with the given encoding. The vector's
// type constrains the valid encodings: Delta applies to Int64 only; Dict to
// Int64 and Float64; RLE to Int64 and Bool.
func EncodeColumn(v *columnar.Vector, enc Encoding) ([]byte, error) {
	switch enc {
	case Plain:
		return encodePlain(v), nil
	case RLE:
		return encodeRLE(v)
	case Delta:
		return encodeDelta(v)
	case Dict:
		return encodeDict(v)
	default:
		return nil, fmt.Errorf("lpq: unknown encoding %v", enc)
	}
}

// DecodeColumn deserializes n values of type t from data.
func DecodeColumn(data []byte, t columnar.Type, enc Encoding, n int) (*columnar.Vector, error) {
	switch enc {
	case Plain:
		return decodePlain(data, t, n)
	case RLE:
		return decodeRLE(data, t, n)
	case Delta:
		return decodeDelta(data, t, n)
	case Dict:
		return decodeDict(data, t, n)
	default:
		return nil, fmt.Errorf("lpq: unknown encoding %v", enc)
	}
}

func encodePlain(v *columnar.Vector) []byte {
	switch v.Type {
	case columnar.Int64:
		out := make([]byte, 8*len(v.Int64s))
		for i, x := range v.Int64s {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
		}
		return out
	case columnar.Float64:
		out := make([]byte, 8*len(v.Float64s))
		for i, x := range v.Float64s {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		}
		return out
	default:
		out := make([]byte, len(v.Bools))
		for i, x := range v.Bools {
			if x {
				out[i] = 1
			}
		}
		return out
	}
}

// decodePlain bulk-decodes fixed-width values: one length check up front,
// then direct index writes into the preallocated value slice (no per-value
// append bookkeeping — this is the hottest decode loop in the system).
func decodePlain(data []byte, t columnar.Type, n int) (*columnar.Vector, error) {
	v := columnar.NewVector(t, n)
	switch t {
	case columnar.Int64:
		if len(data) < 8*n {
			return nil, fmt.Errorf("lpq: plain int64 column truncated: %d < %d", len(data), 8*n)
		}
		v.Int64s = v.Int64s[:n]
		for i := range v.Int64s {
			v.Int64s[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
	case columnar.Float64:
		if len(data) < 8*n {
			return nil, fmt.Errorf("lpq: plain float64 column truncated")
		}
		v.Float64s = v.Float64s[:n]
		for i := range v.Float64s {
			v.Float64s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default:
		if len(data) < n {
			return nil, fmt.Errorf("lpq: plain bool column truncated")
		}
		v.Bools = v.Bools[:n]
		for i := range v.Bools {
			v.Bools[i] = data[i] != 0
		}
	}
	return v, nil
}

func encodeRLE(v *columnar.Vector) ([]byte, error) {
	var out []byte
	switch v.Type {
	case columnar.Int64:
		for i := 0; i < len(v.Int64s); {
			j := i + 1
			for j < len(v.Int64s) && v.Int64s[j] == v.Int64s[i] {
				j++
			}
			out = putUvarint(out, uint64(j-i))
			out = putUvarint(out, zigzag(v.Int64s[i]))
			i = j
		}
	case columnar.Bool:
		for i := 0; i < len(v.Bools); {
			j := i + 1
			for j < len(v.Bools) && v.Bools[j] == v.Bools[i] {
				j++
			}
			out = putUvarint(out, uint64(j-i))
			if v.Bools[i] {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			i = j
		}
	default:
		return nil, fmt.Errorf("lpq: RLE unsupported for %v", v.Type)
	}
	return out, nil
}

func decodeRLE(data []byte, t columnar.Type, n int) (*columnar.Vector, error) {
	v := columnar.NewVector(t, n)
	r := &byteReader{b: data}
	for v.Len() < n {
		run, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if run == 0 || v.Len()+int(run) > n {
			return nil, fmt.Errorf("lpq: RLE run %d overflows %d values", run, n)
		}
		switch t {
		case columnar.Int64:
			u, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			x := unzigzag(u)
			for k := uint64(0); k < run; k++ {
				v.Int64s = append(v.Int64s, x)
			}
		case columnar.Bool:
			b, err := r.byte()
			if err != nil {
				return nil, err
			}
			for k := uint64(0); k < run; k++ {
				v.Bools = append(v.Bools, b != 0)
			}
		default:
			return nil, fmt.Errorf("lpq: RLE unsupported for %v", t)
		}
	}
	return v, nil
}

func encodeDelta(v *columnar.Vector) ([]byte, error) {
	if v.Type != columnar.Int64 {
		return nil, fmt.Errorf("lpq: delta unsupported for %v", v.Type)
	}
	var out []byte
	prev := int64(0)
	for i, x := range v.Int64s {
		if i == 0 {
			out = putUvarint(out, zigzag(x))
		} else {
			out = putUvarint(out, zigzag(x-prev))
		}
		prev = x
	}
	return out, nil
}

func decodeDelta(data []byte, t columnar.Type, n int) (*columnar.Vector, error) {
	if t != columnar.Int64 {
		return nil, fmt.Errorf("lpq: delta unsupported for %v", t)
	}
	v := columnar.NewVector(t, n)
	r := &byteReader{b: data}
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		d := unzigzag(u)
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		v.Int64s = append(v.Int64s, prev)
	}
	return v, nil
}

func encodeDict(v *columnar.Vector) ([]byte, error) {
	var out []byte
	switch v.Type {
	case columnar.Int64:
		dict := map[int64]uint64{}
		var values []int64
		for _, x := range v.Int64s {
			if _, ok := dict[x]; !ok {
				dict[x] = 0
				values = append(values, x)
			}
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		for i, x := range values {
			dict[x] = uint64(i)
		}
		out = putUvarint(out, uint64(len(values)))
		for _, x := range values {
			out = putUvarint(out, zigzag(x))
		}
		for _, x := range v.Int64s {
			out = putUvarint(out, dict[x])
		}
	case columnar.Float64:
		dict := map[float64]uint64{}
		var values []float64
		for _, x := range v.Float64s {
			if _, ok := dict[x]; !ok {
				dict[x] = 0
				values = append(values, x)
			}
		}
		sort.Float64s(values)
		for i, x := range values {
			dict[x] = uint64(i)
		}
		out = putUvarint(out, uint64(len(values)))
		for _, x := range values {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
			out = append(out, tmp[:]...)
		}
		for _, x := range v.Float64s {
			out = putUvarint(out, dict[x])
		}
	default:
		return nil, fmt.Errorf("lpq: dict unsupported for %v", v.Type)
	}
	return out, nil
}

func decodeDict(data []byte, t columnar.Type, n int) (*columnar.Vector, error) {
	r := &byteReader{b: data}
	size, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	v := columnar.NewVector(t, n)
	switch t {
	case columnar.Int64:
		dict := make([]int64, size)
		for i := range dict {
			u, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			dict[i] = unzigzag(u)
		}
		for i := 0; i < n; i++ {
			idx, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if idx >= size {
				return nil, fmt.Errorf("lpq: dict index %d out of range %d", idx, size)
			}
			v.Int64s = append(v.Int64s, dict[idx])
		}
	case columnar.Float64:
		dict := make([]float64, size)
		for i := range dict {
			b, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		for i := 0; i < n; i++ {
			idx, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if idx >= size {
				return nil, fmt.Errorf("lpq: dict index %d out of range %d", idx, size)
			}
			v.Float64s = append(v.Float64s, dict[idx])
		}
	default:
		return nil, fmt.Errorf("lpq: dict unsupported for %v", t)
	}
	return v, nil
}

// maxDictDistinct is the most distinct values a column chunk may have for
// the automatic choice to pick Dict.
const maxDictDistinct = 4096

// ChooseEncoding picks a light-weight encoding for a vector by simple
// analysis: sorted ints get Delta, runs get RLE, low-cardinality columns get
// Dict, everything else Plain.
func ChooseEncoding(v *columnar.Vector) Encoding {
	n := v.Len()
	if n == 0 {
		return Plain
	}
	switch v.Type {
	case columnar.Int64:
		sorted := true
		runs := 1
		distinct := map[int64]struct{}{v.Int64s[0]: {}}
		for i := 1; i < n; i++ {
			if v.Int64s[i] < v.Int64s[i-1] {
				sorted = false
			}
			if v.Int64s[i] != v.Int64s[i-1] {
				runs++
			}
			if len(distinct) <= maxDictDistinct {
				distinct[v.Int64s[i]] = struct{}{}
			}
		}
		switch {
		case runs <= n/4:
			return RLE
		case sorted:
			return Delta
		case len(distinct) <= maxDictDistinct && len(distinct) <= n/4:
			return Dict
		default:
			return Plain
		}
	case columnar.Float64:
		distinct := map[float64]struct{}{}
		for _, x := range v.Float64s {
			distinct[x] = struct{}{}
			if len(distinct) > maxDictDistinct {
				return Plain
			}
		}
		if len(distinct) <= n/4 {
			return Dict
		}
		return Plain
	default:
		runs := 1
		for i := 1; i < n; i++ {
			if v.Bools[i] != v.Bools[i-1] {
				runs++
			}
		}
		if runs <= n/4 {
			return RLE
		}
		return Plain
	}
}
