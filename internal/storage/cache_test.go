package storage

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// TestReadBlockDecodesOnce: later reads of a block hand out the tuples its
// first read decoded, and DecodeAll shares their feature slices.
func TestReadBlockDecodesOnce(t *testing.T) {
	for _, compress := range []bool{false, true} {
		tab, _ := buildTable(t, testDataset(300, 8), Options{BlockSize: 4 << 10, Compress: compress})
		first, err := tab.ReadBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := tab.ReadBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		if &first[0] != &again[0] {
			t.Fatalf("compress=%v: second read decoded the block again", compress)
		}
		all, err := tab.DecodeAll()
		if err != nil {
			t.Fatal(err)
		}
		k := tab.BlockTuples(0)
		if &all[k].Dense[0] != &first[0].Dense[0] {
			t.Fatalf("compress=%v: DecodeAll did not share block 1's decoded tuples", compress)
		}
	}
}

// TestCachedReadChargesLikeColdRead: a read served from the decoded-block
// cache costs the device, the simulated clock, and the device stats exactly
// what a cold read of the same block costs, compressed or not.
func TestCachedReadChargesLikeColdRead(t *testing.T) {
	for _, compress := range []bool{false, true} {
		cold, coldClock := buildTable(t, testDataset(300, 8), Options{BlockSize: 4 << 10, Compress: compress})
		warm, warmClock := buildTable(t, testDataset(300, 8), Options{BlockSize: 4 << 10, Compress: compress})
		// DecodeAll charges nothing and leaves the device untouched, but
		// fills warm's cache.
		if _, err := warm.DecodeAll(); err != nil {
			t.Fatal(err)
		}
		if warmClock.Now() != coldClock.Now() {
			t.Fatalf("compress=%v: DecodeAll charged the clock", compress)
		}
		for _, i := range []int{2, 0, 2, 1} {
			want, err := cold.ReadBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.ReadBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("compress=%v block %d: cached tuples differ from a cold decode", compress, i)
			}
			if warmClock.Now() != coldClock.Now() {
				t.Fatalf("compress=%v block %d: clock %v after a cached read, %v after a cold one",
					compress, i, warmClock.Now(), coldClock.Now())
			}
		}
		if warm.Device().Stats() != cold.Device().Stats() {
			t.Fatalf("compress=%v: device stats %+v with the cache, %+v without",
				compress, warm.Device().Stats(), cold.Device().Stats())
		}
	}
}

// TestCachedBlockStillFails: a block already in the cache still fails a
// read that a fault plan corrupts or fails, and still fails its CRC when
// its stored bytes are damaged.
func TestCachedBlockStillFails(t *testing.T) {
	ds := testDataset(300, 8)
	for _, compress := range []bool{false, true} {
		tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10, Compress: compress})
		if _, err := tab.DecodeAll(); err != nil {
			t.Fatal(err)
		}
		dev := tab.Device()
		dev.WithFaults(iosim.FaultPlan{CorruptBlocks: []int{1}})
		if _, err := tab.ReadBlock(1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("compress=%v: injected corruption of a cached block returned %v, want ErrCorrupt", compress, err)
		}
		dev.WithFaults(iosim.FaultPlan{Seed: 1, ReadErrorProb: 1})
		if _, err := tab.ReadBlock(1); !IsTransient(err) {
			t.Fatalf("compress=%v: transient fault on a cached block returned %v", compress, err)
		}
		dev.WithFaults(iosim.FaultPlan{})
		if _, err := tab.ReadBlock(1); err != nil {
			t.Fatalf("compress=%v: block stayed failed after the plan was lifted: %v", compress, err)
		}
		tab.blocks[1][30] ^= 0xFF
		if _, err := tab.ReadBlock(1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("compress=%v: damaged bytes of a cached block returned %v, want ErrCorrupt", compress, err)
		}
		if _, err := tab.DecodeAll(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("compress=%v: DecodeAll over a damaged cached block returned %v, want ErrCorrupt", compress, err)
		}
	}
}

// TestDecodedCacheAppendTruncateRace runs readers against an appender that
// truncates and re-appends at the same block index, and so at the same
// file offset. A decode that raced the truncate must never be installed for
// the block that replaced it: after every re-append the new block must read
// back as itself. Run it under -race.
func TestDecodedCacheAppendTruncateRace(t *testing.T) {
	ds := testDataset(400, 4)
	tab, _ := buildTable(t, &data.Dataset{
		Name: "t", Task: ds.Task, Features: ds.Features, Classes: ds.Classes,
		Tuples: ds.Tuples[:200],
	}, Options{BlockSize: 2 << 10})
	base := tab.NumBlocks()
	baseTuples := tab.NumTuples()
	// Two one-block batches with distinct IDs take turns at index base.
	batch := func(firstID int64) []data.Tuple {
		out := make([]data.Tuple, 10)
		for i := range out {
			out[i] = ds.Tuples[200+i].Clone()
			out[i].ID = firstID + int64(i)
		}
		return out
	}
	batches := [][]data.Tuple{batch(1000), batch(2000)}
	isBatchStart := func(id int64) bool { return id == 1000 || id == 2000 }

	const rounds = 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(3)
	go func() { // appender
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			b := batches[r%2]
			if _, err := tab.AppendTuples(b); err != nil {
				t.Error(err)
				return
			}
			if tab.NumBlocks() != base+1 {
				t.Errorf("round %d: batch took %d blocks, want 1", r, tab.NumBlocks()-base)
				return
			}
			ts, err := tab.ReadBlock(base)
			if err != nil {
				t.Error(err)
				return
			}
			if ts[0].ID != b[0].ID {
				t.Errorf("round %d: block %d reads as the batch starting at %d, want %d",
					r, base, ts[0].ID, b[0].ID)
				return
			}
			tab.TruncateBlocks(base)
		}
	}()
	go func() { // block reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i <= base; i++ {
				ts, err := tab.ReadBlock(i)
				if err != nil {
					continue // block base may be gone
				}
				if i == base && !isBatchStart(ts[0].ID) {
					t.Errorf("block %d starts at ID %d", i, ts[0].ID)
					return
				}
			}
		}
	}()
	go func() { // whole-table reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			all, err := tab.DecodeAll()
			if err != nil {
				t.Error(err)
				return
			}
			if n := len(all); n != baseTuples && n != baseTuples+10 {
				t.Errorf("DecodeAll returned %d tuples, want %d or %d", n, baseTuples, baseTuples+10)
				return
			}
			if len(all) > baseTuples && !isBatchStart(all[baseTuples].ID) {
				t.Errorf("DecodeAll's appended block starts at ID %d", all[baseTuples].ID)
				return
			}
		}
	}()
	wg.Wait()
}
