package shuffle

import (
	"reflect"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/storage"
)

// assertBlocksPure checks that every block of tab still reads as a fresh
// decode of its stored bytes: no reader has modified the tuples the
// table's decoded-block cache shares.
func assertBlocksPure(t *testing.T, tab *storage.Table) {
	t.Helper()
	for i := 0; i < tab.NumBlocks(); i++ {
		got, err := tab.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := tab.RawBlockAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := storage.DecodeRawTuples(rb.Raw, rb.Tuples)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d no longer matches its stored bytes", i)
		}
	}
}

// TestDecodedCachePurity: every strategy reads blocks through the table's
// shared decoded-block cache, and none may modify what it hands out. After
// epochs of each strategy over one table — CorgiPile, Epoch Shuffle and
// Shuffle Once among them — every block still reads as a fresh decode of
// its file bytes.
func TestDecodedCachePurity(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 600, Features: 6, Order: data.OrderClustered, Seed: 41})
	tab, err := storage.Build(iosim.NewDevice(iosim.SSD, iosim.NewClock()), ds,
		storage.Options{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	src := TableSource(tab)
	for _, kind := range Kinds {
		st, err := New(kind, src, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			it, err := st.StartEpoch(epoch)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, it)
		}
		assertBlocksPure(t, tab)
	}
}
