// Package shuffle implements the data-shuffling strategies the paper
// studies: No Shuffle, Shuffle Once, Epoch Shuffle, Sliding-Window Shuffle
// (TensorFlow), Multiplexed Reservoir Sampling (Bismarck), Block-Only
// Shuffle, and CorgiPile itself. Each strategy turns block-granular storage
// access into a per-epoch stream of training tuples; the I/O it performs is
// charged to the source's simulated device, so strategies are compared on
// both statistical and hardware efficiency.
package shuffle

import (
	"fmt"
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/storage"
)

// Source is block-granular, storage-order access to a dataset — the
// interface between shuffling strategies and the storage engine.
type Source interface {
	// NumBlocks returns the number of blocks (the paper's N).
	NumBlocks() int
	// NumTuples returns the total number of tuples (the paper's m).
	NumTuples() int
	// BlockTuples returns the tuple count of block i.
	BlockTuples(i int) int
	// ReadBlock reads block i, charging any simulated I/O. The returned
	// tuples may be shared with every other reader of the block and are
	// read-only: a table source checks the block's CRC on every read but
	// decodes it only once, and hands every later read the same tuples.
	ReadBlock(i int) ([]data.Tuple, error)
	// Clock returns the simulated clock I/O is charged to, or nil for
	// purely in-memory sources.
	Clock() *iosim.Clock
}

// DeviceSource is a Source backed by a simulated storage device. The
// executor's profiler uses it to attribute device traffic (bytes read,
// cache hits, injected faults) to the plan's access-path leaf.
type DeviceSource interface {
	Source
	// Device returns the backing simulated device.
	Device() *iosim.Device
}

// FullShuffler is a Source that can materialize a fully shuffled copy of
// itself, charging whatever that costs (Shuffle Once's preprocessing).
type FullShuffler interface {
	Source
	// ShuffledCopy returns a new Source holding the same tuples in a
	// uniformly random order, charging the shuffle's I/O cost.
	ShuffledCopy(rng *rand.Rand) (Source, error)
	// ChargeFullShuffle charges the I/O cost of one full shuffle pass
	// without materializing a copy (used by Epoch Shuffle, which re-sorts
	// in place every epoch).
	ChargeFullShuffle()
}

// tableSource adapts a storage.Table to Source.
type tableSource struct {
	t *storage.Table
}

// TableSource wraps a storage table as a strategy Source.
func TableSource(t *storage.Table) FullShuffler { return tableSource{t} }

// Device implements DeviceSource.
func (s tableSource) Device() *iosim.Device { return s.t.Device() }

func (s tableSource) NumBlocks() int        { return s.t.NumBlocks() }
func (s tableSource) NumTuples() int        { return s.t.NumTuples() }
func (s tableSource) BlockTuples(i int) int { return s.t.BlockTuples(i) }
func (s tableSource) Clock() *iosim.Clock   { return s.t.Device().Clock() }
func (s tableSource) ReadBlock(i int) ([]data.Tuple, error) {
	return s.t.ReadBlock(i)
}

func (s tableSource) ShuffledCopy(rng *rand.Rand) (Source, error) {
	shuf, err := storage.ShuffleOnceCopy(s.t, rng)
	if err != nil {
		return nil, err
	}
	return tableSource{shuf}, nil
}

func (s tableSource) ChargeFullShuffle() {
	// External-sort materialization: run-generation write, merge read,
	// result write (the read of the input is charged by the caller's scan).
	size := s.t.SizeBytes()
	dev := s.t.Device()
	dev.WriteAt(size, size)
	dev.ReadAt(size, size)
	dev.WriteAt(2*size, size)
}

// sliceSource restricts a Source to a fixed block range.
type sliceSource struct {
	src    Source
	lo     int
	tuples int
	blocks int
}

// SliceSource restricts src to the block range [lo, hi), fixed at
// construction time. Incremental training uses it to fold only the blocks
// appended since a model's last run into the CorgiPile block pool: the
// range is frozen when the plan is prepared, so blocks appended while the
// plan runs never leak into it and the epoch stays bit-deterministic.
func SliceSource(src Source, lo, hi int) Source {
	if lo < 0 {
		lo = 0
	}
	if hi > src.NumBlocks() {
		hi = src.NumBlocks()
	}
	if hi < lo {
		hi = lo
	}
	tuples := 0
	for i := lo; i < hi; i++ {
		tuples += src.BlockTuples(i)
	}
	return &sliceSource{src: src, lo: lo, tuples: tuples, blocks: hi - lo}
}

// NumBlocks implements Source.
func (s *sliceSource) NumBlocks() int { return s.blocks }

// NumTuples implements Source.
func (s *sliceSource) NumTuples() int { return s.tuples }

// BlockTuples implements Source.
func (s *sliceSource) BlockTuples(i int) int { return s.src.BlockTuples(s.lo + i) }

// Clock implements Source.
func (s *sliceSource) Clock() *iosim.Clock { return s.src.Clock() }

// ReadBlock implements Source.
func (s *sliceSource) ReadBlock(i int) ([]data.Tuple, error) {
	if i < 0 || i >= s.blocks {
		return nil, fmt.Errorf("shuffle: slice block %d out of range [0,%d)", i, s.blocks)
	}
	return s.src.ReadBlock(s.lo + i)
}

// Device implements DeviceSource when the underlying source does.
func (s *sliceSource) Device() *iosim.Device {
	if ds, ok := s.src.(DeviceSource); ok {
		return ds.Device()
	}
	return nil
}

// MemSource is an in-memory Source over a dataset partitioned into blocks
// of a fixed tuple count. It charges no I/O and is used by unit tests and
// by the out-of-DB (PyTorch-style, data already in memory) comparisons.
type MemSource struct {
	ds        *data.Dataset
	perBlock  int
	clock     *iosim.Clock
	readDelay time.Duration // optional fixed per-block latency
}

// NewMemSource partitions ds into blocks of perBlock tuples.
func NewMemSource(ds *data.Dataset, perBlock int) *MemSource {
	if perBlock <= 0 {
		perBlock = 1
	}
	return &MemSource{ds: ds, perBlock: perBlock}
}

// WithClock attaches a clock and per-block read delay to the source and
// returns it, for tests that need timing without a storage engine.
func (s *MemSource) WithClock(c *iosim.Clock, perBlockDelay time.Duration) *MemSource {
	s.clock = c
	s.readDelay = perBlockDelay
	return s
}

// NumBlocks implements Source.
func (s *MemSource) NumBlocks() int {
	return (s.ds.Len() + s.perBlock - 1) / s.perBlock
}

// NumTuples implements Source.
func (s *MemSource) NumTuples() int { return s.ds.Len() }

// BlockTuples implements Source.
func (s *MemSource) BlockTuples(i int) int {
	lo := i * s.perBlock
	hi := lo + s.perBlock
	if hi > s.ds.Len() {
		hi = s.ds.Len()
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Clock implements Source.
func (s *MemSource) Clock() *iosim.Clock { return s.clock }

// ReadBlock implements Source.
func (s *MemSource) ReadBlock(i int) ([]data.Tuple, error) {
	lo := i * s.perBlock
	hi := lo + s.perBlock
	if hi > s.ds.Len() {
		hi = s.ds.Len()
	}
	if s.clock != nil && s.readDelay > 0 {
		s.clock.Advance(s.readDelay)
	}
	out := make([]data.Tuple, hi-lo)
	copy(out, s.ds.Tuples[lo:hi])
	return out, nil
}

// ShuffledCopy implements FullShuffler (free of I/O cost for memory
// sources).
func (s *MemSource) ShuffledCopy(rng *rand.Rand) (Source, error) {
	c := s.ds.Clone()
	c.Shuffle(rng)
	return (&MemSource{ds: c, perBlock: s.perBlock}).WithClock(s.clock, s.readDelay), nil
}

// ChargeFullShuffle implements FullShuffler; in-memory shuffles are free.
func (s *MemSource) ChargeFullShuffle() {}
