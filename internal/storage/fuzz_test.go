package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// fuzzTable returns a throwaway table whose decodeBlockBytes can be pointed
// at arbitrary bytes.
func fuzzTable(compress bool) *Table {
	clock := iosim.NewClock()
	return &Table{
		dev:  iosim.NewDevice(iosim.RAM, clock),
		opts: Options{Compress: compress}.withDefaults(),
	}
}

// validBlockBytes builds a real one-block table and returns the raw bytes of
// block 0, the honest seed the fuzzer mutates.
func validBlockBytes(tb testing.TB, compress bool) []byte {
	ds := testDataset(50, 4)
	clock := iosim.NewClock()
	tab, err := Build(iosim.NewDevice(iosim.RAM, clock), ds, Options{Compress: compress})
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), tab.blocks[0]...)
}

// mixedBlockBytes is validBlockBytes over tuples of every shape the codec
// knows — dense, sparse, and an empty tuple of each kind — so the seed
// corpus reaches every branch of the arena decoder.
func mixedBlockBytes(tb testing.TB, compress bool) []byte {
	ds := &data.Dataset{Name: "mixed", Features: 4, Classes: 2, Tuples: []data.Tuple{
		{ID: 0, Label: 1, Dense: []float64{1, 2, 3, 4}},
		{ID: 1, Label: -1, SparseIdx: []int32{0, 3}, SparseVal: []float64{0.5, -2}},
		{ID: 2, Label: 1, Dense: []float64{}},
		{ID: 3, Label: -1, SparseIdx: []int32{}, SparseVal: []float64{}},
		{ID: 4, Label: 1, Dense: []float64{-1, 0, 1, 2}},
	}}
	clock := iosim.NewClock()
	tab, err := Build(iosim.NewDevice(iosim.RAM, clock), ds, Options{Compress: compress})
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), tab.blocks[0]...)
}

// referenceDecode decodes a block image that the table decoder accepted the
// slow way, one DecodeTuple at a time, each tuple with its own slices.
func referenceDecode(t *testing.T, b []byte, compress bool) []data.Tuple {
	t.Helper()
	raw := b[24 : 24+binary.LittleEndian.Uint64(b[12:])]
	if compress {
		var err error
		if raw, err = io.ReadAll(flate.NewReader(bytes.NewReader(raw))); err != nil {
			t.Fatalf("reference inflate: %v", err)
		}
	}
	count := int(binary.LittleEndian.Uint32(b[0:]))
	out := make([]data.Tuple, 0, count)
	for len(out) < count {
		tp, n, err := DecodeTuple(raw)
		if err != nil {
			t.Fatalf("reference decode of tuple %d: %v", len(out), err)
		}
		out = append(out, tp)
		raw = raw[n:]
	}
	if len(raw) != 0 {
		t.Fatalf("reference decode left %d bytes", len(raw))
	}
	return out
}

// reseal recomputes the CRC so header mutations survive the checksum and
// exercise the validation behind it.
func reseal(b []byte) []byte {
	if len(b) < 24 {
		return b
	}
	payLen := binary.LittleEndian.Uint64(b[12:])
	if payLen > uint64(len(b)-24) {
		return b
	}
	binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[24:24+payLen]))
	return b
}

// FuzzDecodeBlock throws mutated block images at the decoder. The only
// acceptable outcomes are a decoded tuple slice or an error — never a panic
// and never an unbounded allocation from a hostile count/rawLen/payLen. A
// successful decode must equal the tuple-by-tuple reference decode, and
// every tuple's feature slices must be capacity-capped windows of the
// block's arenas, so appending to one tuple can never overwrite the next.
func FuzzDecodeBlock(f *testing.F) {
	plain := validBlockBytes(f, false)
	comp := validBlockBytes(f, true)
	f.Add(plain, false)
	f.Add(comp, true)
	f.Add(mixedBlockBytes(f, false), false)
	f.Add(mixedBlockBytes(f, true), true)
	f.Add([]byte{}, false)
	f.Add(make([]byte, 23), false)

	// Hostile headers resealed with a valid CRC: huge tuple count, huge
	// rawLen, payLen past the buffer, zero-length everything.
	huge := append([]byte(nil), plain...)
	binary.LittleEndian.PutUint32(huge[0:], 0xFFFFFFFF)
	f.Add(reseal(huge), false)

	bigRaw := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(bigRaw[4:], 1<<40)
	f.Add(reseal(bigRaw), true)

	longPay := append([]byte(nil), plain...)
	binary.LittleEndian.PutUint64(longPay[12:], 1<<40)
	f.Add(longPay, false)

	empty := make([]byte, 24)
	f.Add(reseal(empty), false)
	f.Add(reseal(append([]byte(nil), empty...)), true)

	flipped := append([]byte(nil), plain...)
	flipped[24] ^= 0x01
	f.Add(flipped, false)

	f.Fuzz(func(t *testing.T, b []byte, compress bool) {
		tab := fuzzTable(compress)
		tuples, err := tab.decodeBlockBytes(b, true)
		if err != nil {
			return
		}
		if count := binary.LittleEndian.Uint32(b[0:]); int(count) != len(tuples) {
			t.Fatalf("decoded %d tuples, header claims %d", len(tuples), count)
		}
		if want := referenceDecode(t, b, compress); !reflect.DeepEqual(tuples, want) {
			t.Fatalf("arena decode differs from the reference decode:\n got %v\nwant %v", tuples, want)
		}
		for i := range tuples {
			tp := &tuples[i]
			if cap(tp.Dense) != len(tp.Dense) || cap(tp.SparseIdx) != len(tp.SparseIdx) ||
				cap(tp.SparseVal) != len(tp.SparseVal) {
				t.Fatalf("tuple %d: feature slice capacity exceeds its length", i)
			}
		}
	})
}

// FuzzDecodeTuple targets the tuple codec alone: hostile count fields must
// produce ErrCorrupt, not out-of-range slicing or giant allocations.
func FuzzDecodeTuple(f *testing.F) {
	ds := testDataset(3, 4)
	var enc []byte
	for i := range ds.Tuples {
		enc = AppendTuple(enc, &ds.Tuples[i])
	}
	f.Add(enc)
	f.Add(enc[:tupleHeaderSize])
	f.Add([]byte{})

	hostile := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(hostile[17:], 0xFFFFFFFF)
	f.Add(hostile)

	sparse := append([]byte(nil), enc...)
	sparse[16] = flagSparse
	f.Add(sparse)
	badFlag := append([]byte(nil), enc...)
	badFlag[16] = 7
	f.Add(badFlag)

	f.Fuzz(func(t *testing.T, b []byte) {
		for len(b) > 0 {
			tp, n, err := DecodeTuple(b)
			if err != nil {
				return
			}
			if n <= 0 || n > len(b) {
				t.Fatalf("DecodeTuple consumed %d of %d bytes", n, len(b))
			}
			if len(tp.Dense) > len(b)/8+1 {
				t.Fatalf("decoded %d dense values from %d bytes", len(tp.Dense), len(b))
			}
			b = b[n:]
		}
	})
}
