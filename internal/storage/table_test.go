package storage

import (
	"math/rand"
	"strings"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

func testDataset(n, features int) *data.Dataset {
	return data.SyntheticBinary(data.SyntheticConfig{
		Tuples: n, Features: features, Order: data.OrderClustered, Seed: 11})
}

func buildTable(t *testing.T, ds *data.Dataset, opts Options) (*Table, *iosim.Clock) {
	t.Helper()
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.SSD, clock)
	tab, err := Build(dev, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tab, clock
}

func TestBuildAndScanAllRoundTrip(t *testing.T) {
	ds := testDataset(500, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	got, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ds.Len() {
		t.Fatalf("scanned %d tuples, want %d", len(got), ds.Len())
	}
	for i := range got {
		if got[i].ID != ds.Tuples[i].ID || got[i].Label != ds.Tuples[i].Label {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, got[i], ds.Tuples[i])
		}
		for j := range got[i].Dense {
			if got[i].Dense[j] != ds.Tuples[i].Dense[j] {
				t.Fatalf("tuple %d feature %d mismatch", i, j)
			}
		}
	}
}

func TestBlockSizing(t *testing.T) {
	ds := testDataset(1000, 8) // each tuple 21+64=85 bytes
	tab, _ := buildTable(t, ds, Options{BlockSize: 1 << 12})
	if tab.NumBlocks() < 10 {
		t.Fatalf("expected many blocks, got %d", tab.NumBlocks())
	}
	total := 0
	for i := 0; i < tab.NumBlocks(); i++ {
		total += tab.BlockTuples(i)
	}
	if total != ds.Len() {
		t.Fatalf("block tuple counts sum to %d, want %d", total, ds.Len())
	}
	if tab.NumTuples() != ds.Len() {
		t.Fatalf("NumTuples = %d, want %d", tab.NumTuples(), ds.Len())
	}
}

func TestBlocksPageAligned(t *testing.T) {
	ds := testDataset(400, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 1 << 12, PageSize: 1 << 10})
	for i, m := range tab.meta {
		if m.Len%(1<<10) != 0 {
			t.Fatalf("block %d length %d not page aligned", i, m.Len)
		}
		if m.Offset%(1<<10) != 0 {
			t.Fatalf("block %d offset %d not page aligned", i, m.Offset)
		}
	}
}

func TestReadBlockChargesIO(t *testing.T) {
	ds := testDataset(1000, 32)
	tab, clock := buildTable(t, ds, Options{BlockSize: 8 << 10})
	before := clock.Now()
	if _, err := tab.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	if clock.Now() <= before {
		t.Fatal("ReadBlock did not advance the clock")
	}
}

func TestBuildDoesNotChargeByDefault(t *testing.T) {
	ds := testDataset(200, 8)
	_, clock := buildTable(t, ds, Options{})
	if clock.Now() != 0 {
		t.Fatalf("build charged %v without ChargeBuild", clock.Now())
	}
}

func TestBuildChargesWhenAsked(t *testing.T) {
	ds := testDataset(200, 8)
	_, clock := buildTable(t, ds, Options{ChargeBuild: true})
	if clock.Now() == 0 {
		t.Fatal("ChargeBuild did not charge the clock")
	}
}

func TestReadBlockOutOfRange(t *testing.T) {
	ds := testDataset(100, 4)
	tab, _ := buildTable(t, ds, Options{})
	if _, err := tab.ReadBlock(-1); err == nil {
		t.Fatal("negative block index should error")
	}
	if _, err := tab.ReadBlock(tab.NumBlocks()); err == nil {
		t.Fatal("out-of-range block index should error")
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	ds := testDataset(300, 64)
	tab, _ := buildTable(t, ds, Options{BlockSize: 16 << 10, Compress: true})
	got, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ds.Len() {
		t.Fatalf("compressed scan returned %d tuples, want %d", len(got), ds.Len())
	}
	for i := range got {
		if got[i].Label != ds.Tuples[i].Label {
			t.Fatalf("tuple %d label mismatch after compression", i)
		}
	}
}

func TestCompressedReadSlowerPerRawByte(t *testing.T) {
	// With a very low decompress rate, the compressed table's read time
	// must be dominated by decompression.
	ds := testDataset(500, 128)
	clock := iosim.NewClock()
	dev := iosim.NewDevice(iosim.SSD, clock)
	tab, err := Build(dev, ds, Options{BlockSize: 64 << 10, Compress: true, DecompressRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.ScanAll(); err != nil {
		t.Fatal(err)
	}
	slowTime := clock.Now()

	clock2 := iosim.NewClock()
	dev2 := iosim.NewDevice(iosim.SSD, clock2)
	tab2, err := Build(dev2, ds, Options{BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab2.ScanAll(); err != nil {
		t.Fatal(err)
	}
	if slowTime <= clock2.Now() {
		t.Fatalf("slow-decompress scan (%v) should exceed plain scan (%v)", slowTime, clock2.Now())
	}
}

func TestSparseTableRoundTrip(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 200, Features: 1000, Sparse: true, NNZ: 10, Order: data.OrderClustered, Seed: 12})
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	got, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].NNZ() != 10 {
			t.Fatalf("tuple %d NNZ = %d, want 10", i, got[i].NNZ())
		}
	}
}

func TestShuffleOnceCopy(t *testing.T) {
	ds := testDataset(600, 8)
	tab, clock := buildTable(t, ds, Options{BlockSize: 4 << 10})
	before := clock.Now()
	shuf, err := ShuffleOnceCopy(tab, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() <= before {
		t.Fatal("ShuffleOnceCopy must charge shuffle I/O")
	}
	if shuf.NumTuples() != tab.NumTuples() {
		t.Fatalf("shuffled copy has %d tuples, want %d", shuf.NumTuples(), tab.NumTuples())
	}
	got, err := shuf.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	// Same multiset of IDs, different order.
	seen := make(map[int64]bool, len(got))
	sameOrder := true
	for i := range got {
		seen[got[i].ID] = true
		if got[i].ID != int64(i) {
			sameOrder = false
		}
	}
	if len(seen) != ds.Len() {
		t.Fatal("shuffled copy lost tuples")
	}
	if sameOrder {
		t.Fatal("shuffled copy is in original order")
	}
}

func TestShuffleOnceCostExceedsScan(t *testing.T) {
	ds := testDataset(2000, 32)
	clockScan := iosim.NewClock()
	devScan := iosim.NewDevice(iosim.HDD, clockScan)
	tabScan, err := Build(devScan, ds, Options{BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tabScan.ScanAll(); err != nil {
		t.Fatal(err)
	}
	scanCost := clockScan.Now()

	clockShuf := iosim.NewClock()
	devShuf := iosim.NewDevice(iosim.HDD, clockShuf)
	tabShuf, err := Build(devShuf, ds, Options{BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = ShuffleOnceCopy(tabShuf, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if clockShuf.Now() < 2*scanCost {
		t.Fatalf("shuffle once cost %v should be well above one scan %v", clockShuf.Now(), scanCost)
	}
}

func TestTableMetadataAccessors(t *testing.T) {
	ds := testDataset(100, 7)
	tab, _ := buildTable(t, ds, Options{})
	if tab.Task() != data.TaskBinary || tab.Features() != 7 || tab.Classes() != 2 {
		t.Fatalf("metadata wrong: %v/%d/%d", tab.Task(), tab.Features(), tab.Classes())
	}
	if tab.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	if tab.Device() == nil || tab.Options().BlockSize != 10<<20 {
		t.Fatal("accessors broken")
	}
}

func TestBlockFirstIDs(t *testing.T) {
	ds := testDataset(500, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	next := int64(0)
	for i, m := range tab.meta {
		if m.FirstID != next {
			t.Fatalf("block %d FirstID = %d, want %d", i, m.FirstID, next)
		}
		next += int64(m.Tuples)
	}
}

func TestBlockChecksumDetectsCorruption(t *testing.T) {
	ds := testDataset(300, 8)
	tab, _ := buildTable(t, ds, Options{BlockSize: 4 << 10})
	// Flip a byte inside the first block's payload.
	tab.blocks[0][30] ^= 0xFF
	if _, err := tab.ReadBlock(0); err == nil {
		t.Fatal("corrupted block should fail its checksum")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %v should mention checksum", err)
	}
	// Other blocks stay readable.
	if _, err := tab.ReadBlock(1); err != nil {
		t.Fatalf("unrelated block failed: %v", err)
	}
}

func TestBlockChecksumCompressed(t *testing.T) {
	ds := testDataset(300, 16)
	tab, _ := buildTable(t, ds, Options{BlockSize: 8 << 10, Compress: true})
	tab.blocks[0][26] ^= 0x01
	if _, err := tab.ReadBlock(0); err == nil {
		t.Fatal("corrupted compressed block should fail")
	}
}
