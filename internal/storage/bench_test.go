package storage

import (
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// benchRawBlocks lays out 20,000 sparse 28-feature tuples in 64 KB blocks,
// the shape of a LIBSVM-loaded higgs-like table, and returns the blocks'
// raw forms.
func benchRawBlocks(b *testing.B) []RawBlock {
	b.Helper()
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 20000, Features: 28, Order: data.OrderClustered, Seed: 13})
	for i := range ds.Tuples {
		tp := &ds.Tuples[i]
		tp.SparseIdx = make([]int32, len(tp.Dense))
		for j := range tp.SparseIdx {
			tp.SparseIdx[j] = int32(j)
		}
		tp.SparseVal, tp.Dense = tp.Dense, nil
	}
	tab, err := Build(iosim.NewDevice(iosim.RAM, iosim.NewClock()), ds, Options{BlockSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	raws := make([]RawBlock, tab.NumBlocks())
	for i := range raws {
		if raws[i], err = tab.RawBlockAt(i); err != nil {
			b.Fatal(err)
		}
	}
	return raws
}

// benchTable installs raws as a fresh table whose blocks have never been
// read.
func benchTable(b *testing.B, raws []RawBlock) *Table {
	b.Helper()
	tab := NewEmpty(iosim.NewDevice(iosim.RAM, iosim.NewClock()), "bench", data.TaskBinary, 28, 2,
		Options{BlockSize: 64 << 10})
	for _, rb := range raws {
		if err := tab.AppendRawBlock(rb); err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// readAll reads every block of tab once and returns the tuple count.
func readAll(b *testing.B, tab *Table) int {
	n := 0
	for i := 0; i < tab.NumBlocks(); i++ {
		ts, err := tab.ReadBlock(i)
		if err != nil {
			b.Fatal(err)
		}
		n += len(ts)
	}
	return n
}

// BenchmarkReadBlockFirstRead times the first read of every block of a
// table: the header and CRC check plus the full decode.
func BenchmarkReadBlockFirstRead(b *testing.B) {
	raws := benchRawBlocks(b)
	b.ReportAllocs()
	b.ResetTimer()
	tuples := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := benchTable(b, raws)
		b.StartTimer()
		tuples += readAll(b, tab)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
}

// BenchmarkReadBlockReread times reads of blocks that have been read
// before, the case of every CorgiPile epoch after the first.
func BenchmarkReadBlockReread(b *testing.B) {
	tab := benchTable(b, benchRawBlocks(b))
	readAll(b, tab)
	b.ReportAllocs()
	b.ResetTimer()
	tuples := 0
	for i := 0; i < b.N; i++ {
		tuples += readAll(b, tab)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
}

// BenchmarkAppendRawBlock times appending the blocks of a table from their
// raw forms, the path of CREATE TABLE ... FROM, INSERT and WAL replay.
func BenchmarkAppendRawBlock(b *testing.B) {
	raws := benchRawBlocks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTable(b, raws)
	}
}
