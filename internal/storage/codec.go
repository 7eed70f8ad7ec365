// Package storage implements the on-disk table layout CorgiPile's physical
// operators address: a binary tuple codec, heap pages grouped into fixed
// target-size blocks, a block index, and block reads costed through the
// simulated device of internal/iosim. An optional per-block flate
// compression models PostgreSQL's TOAST behaviour for wide tuples.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"corgipile/internal/data"
)

// Tuple wire format (little endian):
//
//	id      uint64
//	label   float64 bits
//	flags   byte    (0 = dense, 1 = sparse)
//	count   uint32  (number of stored feature values)
//	dense:  count × float64
//	sparse: count × (int32 index, float64 value)
const (
	flagDense  = 0
	flagSparse = 1

	tupleHeaderSize = 8 + 8 + 1 + 4
)

// ErrCorrupt reports a malformed tuple or block.
var ErrCorrupt = errors.New("storage: corrupt data")

// AppendTuple appends the encoding of t to buf and returns the extended
// slice.
func AppendTuple(buf []byte, t *data.Tuple) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Label))
	if t.IsSparse() {
		buf = append(buf, flagSparse)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.SparseIdx)))
		for i, idx := range t.SparseIdx {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.SparseVal[i]))
		}
		return buf
	}
	buf = append(buf, flagDense)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Dense)))
	for _, v := range t.Dense {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// tupleExtent validates the tuple header at the front of buf against the
// bytes that follow it, returning the representation flag, the stored value
// count and the tuple's encoded length. It allocates nothing.
func tupleExtent(buf []byte) (flags byte, count, n int, err error) {
	if len(buf) < tupleHeaderSize {
		return 0, 0, 0, fmt.Errorf("%w: short tuple header (%d bytes)", ErrCorrupt, len(buf))
	}
	flags = buf[16]
	count = int(binary.LittleEndian.Uint32(buf[17:]))
	// Overflow-safe: compare count against the space left, never n+count*8.
	switch flags {
	case flagDense:
		if count > (len(buf)-tupleHeaderSize)/8 {
			return 0, 0, 0, fmt.Errorf("%w: short dense payload", ErrCorrupt)
		}
		return flags, count, tupleHeaderSize + count*8, nil
	case flagSparse:
		if count > (len(buf)-tupleHeaderSize)/12 {
			return 0, 0, 0, fmt.Errorf("%w: short sparse payload", ErrCorrupt)
		}
		return flags, count, tupleHeaderSize + count*12, nil
	}
	return 0, 0, 0, fmt.Errorf("%w: unknown tuple flags %d", ErrCorrupt, flags)
}

// DecodeTuple decodes one tuple from the front of buf, returning the tuple
// and the number of bytes consumed.
func DecodeTuple(buf []byte) (data.Tuple, int, error) {
	flags, count, n, err := tupleExtent(buf)
	if err != nil {
		return data.Tuple{}, 0, err
	}
	var t data.Tuple
	if flags == flagDense {
		decodeTupleInto(&t, buf, make([]float64, count), nil)
	} else {
		decodeTupleInto(&t, buf, make([]float64, count), make([]int32, count))
	}
	return t, n, nil
}

// decodeTupleInto decodes the tuple at the front of buf, whose header
// tupleExtent has validated, into t. The feature values land in vals (and
// the sparse indices in idx), which must hold exactly the tuple's count.
func decodeTupleInto(t *data.Tuple, buf []byte, vals []float64, idx []int32) {
	t.ID = int64(binary.LittleEndian.Uint64(buf))
	t.Label = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	p := buf[tupleHeaderSize:]
	if buf[16] == flagDense {
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
		t.Dense = vals
		return
	}
	for i := range vals {
		idx[i] = int32(binary.LittleEndian.Uint32(p[i*12:]))
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*12+4:]))
	}
	t.SparseIdx, t.SparseVal = idx, vals
}

// scanRawTuples is the validating first pass over a raw block payload: it
// checks that raw holds exactly count well-formed tuples with no trailing
// bytes, and returns how many dense values and sparse entries they store.
// It allocates nothing, so appends validate their payload without building
// tuples they would throw away.
func scanRawTuples(raw []byte, count int) (dense, sparse int, err error) {
	if count < 0 || count > len(raw)/tupleHeaderSize {
		return 0, 0, fmt.Errorf("%w: tuple count %d exceeds %d-byte payload", ErrCorrupt, count, len(raw))
	}
	for i := 0; i < count; i++ {
		flags, c, n, err := tupleExtent(raw)
		if err != nil {
			return 0, 0, err
		}
		if flags == flagDense {
			dense += c
		} else {
			sparse += c
		}
		raw = raw[n:]
	}
	if len(raw) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes after %d tuples", ErrCorrupt, len(raw), count)
	}
	return dense, sparse, nil
}

// DecodeRawTuples decodes exactly count tuples from a raw block payload
// (concatenated AppendTuple encodings with no trailing bytes). It is the
// validation gate for WAL-replayed blocks: hostile payloads yield
// ErrCorrupt, never a panic.
//
// The payload is validated in full before anything is allocated. The
// tuples then share one backing array per value kind, each holding a
// capacity-capped window of it, so a block costs three allocations however
// many tuples it holds.
func DecodeRawTuples(raw []byte, count int) ([]data.Tuple, error) {
	dense, sparse, err := scanRawTuples(raw, count)
	if err != nil {
		return nil, err
	}
	tuples := make([]data.Tuple, count)
	vals := make([]float64, dense+sparse)
	idx := make([]int32, sparse)
	for i := range tuples {
		flags, c, n, _ := tupleExtent(raw) // the scan has validated it
		v, ix := vals[:c:c], []int32(nil)
		vals = vals[c:]
		if flags == flagSparse {
			ix, idx = idx[:c:c], idx[c:]
		}
		decodeTupleInto(&tuples[i], raw, v, ix)
		raw = raw[n:]
	}
	return tuples, nil
}

// EncodedTupleSize returns the size of t's encoding in bytes.
func EncodedTupleSize(t *data.Tuple) int {
	if t.IsSparse() {
		return tupleHeaderSize + len(t.SparseIdx)*12
	}
	return tupleHeaderSize + len(t.Dense)*8
}
