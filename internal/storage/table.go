package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
)

// Options configures table layout.
type Options struct {
	// BlockSize is the target uncompressed bytes per block — the unit of
	// random access for the BlockShuffle operator. Default 10 MiB (the
	// paper's recommended setting).
	BlockSize int64
	// PageSize is the heap page size; blocks hold whole pages. Default
	// 8 KiB (PostgreSQL's page size).
	PageSize int64
	// Compress enables per-block flate compression, modelling PostgreSQL's
	// TOAST for wide tuples (the paper's epsilon and yfcc datasets).
	Compress bool
	// DecompressRate is the modelled decompression throughput in
	// bytes/second of raw output; it throttles compressed reads the way
	// TOAST throttled the paper's yfcc loading to ~130 MB/s. Default 150e6.
	DecompressRate float64
	// ChargeBuild charges the cost of writing the table to the device's
	// clock. Off by default: experiments start from an existing table.
	ChargeBuild bool
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 10 << 20
	}
	if o.PageSize <= 0 {
		o.PageSize = 8 << 10
	}
	if o.DecompressRate <= 0 {
		o.DecompressRate = 150e6
	}
	return o
}

// BlockMeta records one block in the table's block index, the structure the
// BlockShuffle operator consults to address random blocks.
type BlockMeta struct {
	// Offset and Len locate the block's bytes in the table file (Len is the
	// on-disk, possibly compressed, length).
	Offset int64
	Len    int64
	// RawLen is the uncompressed payload length.
	RawLen int64
	// Tuples is the number of tuples stored in the block.
	Tuples int
	// FirstID is the ID of the block's first tuple in storage order.
	FirstID int64
}

// RawBlock is the device-independent form of one block: the raw
// (uncompressed) tuple payload plus its tuple count and first tuple ID. It
// is what the write-ahead log records for an append — replaying a RawBlock
// through AppendRawBlock reproduces the block bit-for-bit, including
// recompression, on any device.
type RawBlock struct {
	// Raw is the concatenated tuple encodings (AppendTuple format).
	Raw []byte
	// Tuples is the number of tuples encoded in Raw.
	Tuples int
	// FirstID is the ID of the block's first tuple.
	FirstID int64
}

// Table is a heap table laid out in blocks on a simulated device.
//
// Tuple bytes live in memory (one image per block); the device accounts
// for the simulated time real hardware would spend serving each access.
//
// Tables are mutable: AppendTuples/AppendRawBlock add whole blocks to the
// tail under an internal lock, and existing blocks are never rewritten, so
// concurrent readers (a training epoch in flight) observe a stable prefix
// while ingestion extends the table.
//
// Each block is decoded at most once: the first read keeps the decoded
// tuples beside the block index, and every later ReadBlock and DecodeAll
// hands out those same tuples. Only the parse (and, for compressed blocks,
// the real inflate) is skipped; every read still charges the device, takes
// injected faults, and checks the block header and the CRC of the stored
// bytes.
type Table struct {
	Name string

	dev  *iosim.Device
	opts Options

	mu sync.RWMutex
	// blocks[i] is block i's on-disk image (header, payload and page
	// padding) in an array of its own, so an append never copies the
	// table; size is the file length, where the next block starts.
	blocks [][]byte
	size   int64
	meta   []BlockMeta
	// decoded[i] holds block i's tuples once a read has decoded them (nil
	// until then). gen counts TruncateBlocks calls: a truncate followed by
	// a re-append reuses the same index and file offset, so a decode that
	// raced it must not be installed for the block that replaced it.
	decoded [][]data.Tuple
	gen     uint64

	task     data.Task
	features int
	classes  int
	tuples   int
}

// NewEmpty returns an empty table with the given schema on dev — the
// starting point for WAL replay and for ingestion-built tables.
func NewEmpty(dev *iosim.Device, name string, task data.Task, features, classes int, opts Options) *Table {
	return &Table{
		Name:     name,
		dev:      dev,
		opts:     opts.withDefaults(),
		task:     task,
		features: features,
		classes:  classes,
	}
}

// Build lays the dataset out as a table on the device. Tuples are packed
// into pages and pages into blocks of opts.BlockSize bytes; a tuple never
// spans blocks, so each block decodes independently.
func Build(dev *iosim.Device, ds *data.Dataset, opts Options) (*Table, error) {
	t := NewEmpty(dev, ds.Name, ds.Task, ds.Features, ds.Classes, opts)
	if _, err := t.appendTuples(ds.Tuples, false); err != nil {
		return nil, err
	}
	return t, nil
}

// AppendTuples packs ts into new blocks appended to the table tail,
// returning the raw form of every appended block so callers (the WAL) can
// log exactly what changed. Appends never rewrite existing blocks: the last
// block of the table stays as it was, so a trailing short block is possible
// — every reader already tolerates variable block sizes.
func (t *Table) AppendTuples(ts []data.Tuple) ([]RawBlock, error) {
	return t.appendTuples(ts, true)
}

// appendTuples is AppendTuples with an optional retained copy of each raw
// payload; Build skips the copies since nothing logs them.
func (t *Table) appendTuples(ts []data.Tuple, keepRaw bool) ([]RawBlock, error) {
	var out []RawBlock
	var raw []byte
	var count int
	firstID := int64(0)
	flush := func() error {
		if count == 0 {
			return nil
		}
		rb := RawBlock{Raw: raw, Tuples: count, FirstID: firstID}
		if err := t.AppendRawBlock(rb); err != nil {
			return err
		}
		if keepRaw {
			rb.Raw = append([]byte(nil), raw...)
			out = append(out, rb)
		}
		raw = raw[:0]
		count = 0
		return nil
	}
	for i := range ts {
		tp := &ts[i]
		if count == 0 {
			firstID = tp.ID
		}
		raw = AppendTuple(raw, tp)
		count++
		if int64(len(raw)) >= t.opts.BlockSize-24 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendRawBlock appends one block from its raw form — the WAL replay path.
// The payload is validated tuple by tuple before any table state changes,
// so a corrupt record can never install an undecodable block. Validation
// builds no tuples: the block is decoded on its first read.
func (t *Table) AppendRawBlock(rb RawBlock) error {
	if _, _, err := scanRawTuples(rb.Raw, rb.Tuples); err != nil {
		return fmt.Errorf("storage: append block: %w", err)
	}
	payload := rb.Raw
	rawLen := int64(len(rb.Raw))
	if t.opts.Compress {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return fmt.Errorf("storage: flate init: %w", err)
		}
		if _, err := fw.Write(rb.Raw); err != nil {
			return fmt.Errorf("storage: compress: %w", err)
		}
		if err := fw.Close(); err != nil {
			return fmt.Errorf("storage: compress close: %w", err)
		}
		payload = buf.Bytes()
	}
	// Block header: tuple count, raw length, payload length, CRC32 of
	// the payload (integrity check on every read).
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(rb.Tuples))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(rawLen))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(payload))

	// Pad uncompressed blocks to whole pages so BN matches
	// page_num*page_size/block_size as in the paper's operator.
	blockLen := int64(len(hdr)) + int64(len(payload))
	if rem := blockLen % t.opts.PageSize; !t.opts.Compress && rem != 0 {
		blockLen += t.opts.PageSize - rem
	}
	img := make([]byte, blockLen)
	copy(img, hdr[:])
	copy(img[len(hdr):], payload)

	t.mu.Lock()
	offset := t.size
	t.size += blockLen
	t.blocks = append(t.blocks, img)
	t.meta = append(t.meta, BlockMeta{
		Offset: offset, Len: blockLen, RawLen: rawLen, Tuples: rb.Tuples, FirstID: rb.FirstID,
	})
	t.decoded = append(t.decoded, nil)
	t.tuples += rb.Tuples
	t.mu.Unlock()
	if t.opts.ChargeBuild {
		t.dev.WriteAt(offset, blockLen)
	}
	return nil
}

// Device returns the device the table lives on.
func (t *Table) Device() *iosim.Device { return t.dev }

// Options returns the table's layout options.
func (t *Table) Options() Options { return t.opts }

// Task returns the learning task of the stored dataset.
func (t *Table) Task() data.Task { return t.task }

// Features returns the feature dimensionality of the stored dataset.
func (t *Table) Features() int { return t.features }

// Classes returns the number of classes of the stored dataset.
func (t *Table) Classes() int { return t.classes }

// TruncateBlocks drops blocks from the tail until n remain — the rollback
// hook for an append whose WAL record could not be made durable. Durable
// state is the source of truth: if the log rejected the record, the
// in-memory blocks must go too, or a restart would silently lose tuples
// the session still served. Snapshots taken before the call stay valid
// (the retained prefix is re-sliced with full capacity bounds so later
// appends reallocate instead of overwriting).
func (t *Table) TruncateBlocks(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 || n >= len(t.meta) {
		return
	}
	t.size = t.meta[n].Offset
	for _, m := range t.meta[n:] {
		t.tuples -= m.Tuples
	}
	t.meta = t.meta[:n:n]
	t.blocks = t.blocks[:n:n]
	t.decoded = t.decoded[:n:n]
	t.gen++
}

// NumBlocks returns the number of blocks (the paper's N).
func (t *Table) NumBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.meta)
}

// NumTuples returns the number of tuples (the paper's m).
func (t *Table) NumTuples() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tuples
}

// SizeBytes returns the on-disk size of the table file.
func (t *Table) SizeBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// BlockTuples returns the tuple count of block i.
func (t *Table) BlockTuples(i int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.meta[i].Tuples
}

// blockRef is one block as captured under the read lock: its index entry,
// its stored bytes, its decoded tuples if a read has already decoded it,
// and the table generation all three belong to.
type blockRef struct {
	i      int
	m      BlockMeta
	bytes  []byte
	tuples []data.Tuple
	gen    uint64
}

// ref captures block i under the read lock.
func (t *Table) ref(i int) (blockRef, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.meta) {
		return blockRef{}, fmt.Errorf("storage: block %d out of range [0,%d)", i, len(t.meta))
	}
	return t.refLocked(i), nil
}

// refs captures every block at once, so the set is consistent with one
// instant of the table. Blocks are immutable once appended, so the
// captured bytes stay valid while concurrent appends extend the table.
func (t *Table) refs() []blockRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]blockRef, len(t.meta))
	for i := range out {
		out[i] = t.refLocked(i)
	}
	return out
}

func (t *Table) refLocked(i int) blockRef {
	return blockRef{i: i, m: t.meta[i], bytes: t.blocks[i], tuples: t.decoded[i], gen: t.gen}
}

// ReadBlock reads block i, charging the device (and therefore the
// simulated clock) for the access. Compressed blocks additionally pay the
// modelled decompression time. A device fault plan may make the read fail
// transiently (an error wrapping iosim.ErrTransient) or return the block's
// payload with a flipped bit, which the CRC check converts into a
// permanent ErrCorrupt.
//
// The header and CRC of the stored bytes are checked on every read, but
// the tuples are decoded only on a block's first read. The returned tuples
// are shared with every other reader of the block and must not be
// modified.
func (t *Table) ReadBlock(i int) ([]data.Tuple, error) {
	b, err := t.ref(i)
	if err != nil {
		return nil, err
	}
	if _, err := t.dev.TryReadAt(b.m.Offset, b.m.Len); err != nil {
		return nil, fmt.Errorf("storage: block %d: %w", i, err)
	}
	if t.dev.BlockCorrupt(i) {
		// Decode a copy with one payload bit flipped: the checksum trips
		// exactly as it would for real media corruption. The copy neither
		// reads nor fills the decoded-block cache.
		buf := append([]byte(nil), b.bytes...)
		if len(buf) > 24 {
			buf[24] ^= 0x01
		}
		tuples, err := t.decodeBlockBytes(buf, true)
		if err != nil {
			return nil, fmt.Errorf("storage: block %d: %w", i, err)
		}
		return tuples, nil
	}
	return t.decodeRef(b, true)
}

// RawBlockAt reconstructs block i's raw form without charging any simulated
// I/O — the checkpoint writer's read path.
func (t *Table) RawBlockAt(i int) (RawBlock, error) {
	b, err := t.ref(i)
	if err != nil {
		return RawBlock{}, err
	}
	m, blk := b.m, b.bytes
	if !t.opts.Compress {
		if int64(len(blk)) < 24+m.RawLen {
			return RawBlock{}, fmt.Errorf("%w: block %d shorter than its raw length", ErrCorrupt, i)
		}
		raw := append([]byte(nil), blk[24:24+m.RawLen]...)
		return RawBlock{Raw: raw, Tuples: m.Tuples, FirstID: m.FirstID}, nil
	}
	tuples, err := t.decodeRef(b, false)
	if err != nil {
		return RawBlock{}, err
	}
	var raw []byte
	for i := range tuples {
		raw = AppendTuple(raw, &tuples[i])
	}
	return RawBlock{Raw: raw, Tuples: m.Tuples, FirstID: m.FirstID}, nil
}

// maxFlateRatio bounds flate's expansion: rawLen claims beyond this ratio
// of the stored payload are rejected as corrupt before any allocation.
const maxFlateRatio = 1032

// checkBlock validates a stored block image: every header field is checked
// against the image before it is trusted, then the CRC32 of the stored
// payload. It returns the stored payload, the tuple count and the raw
// (uncompressed) length. A hostile or bit-flipped header yields ErrCorrupt,
// never a panic or an unbounded allocation.
func (t *Table) checkBlock(buf []byte) (payload []byte, count int, rawLen int64, err error) {
	if len(buf) < 24 {
		return nil, 0, 0, fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	count64 := int64(binary.LittleEndian.Uint32(buf[0:]))
	rawLen = int64(binary.LittleEndian.Uint64(buf[4:]))
	payLen := int64(binary.LittleEndian.Uint64(buf[12:]))
	sum := binary.LittleEndian.Uint32(buf[20:])
	if payLen < 0 || payLen > int64(len(buf))-24 {
		return nil, 0, 0, fmt.Errorf("%w: payload length %d out of range for %d-byte block", ErrCorrupt, payLen, len(buf))
	}
	if rawLen < 0 || (!t.opts.Compress && rawLen != payLen) || rawLen > payLen*maxFlateRatio+64 {
		return nil, 0, 0, fmt.Errorf("%w: raw length %d inconsistent with %d-byte payload", ErrCorrupt, rawLen, payLen)
	}
	if count64*tupleHeaderSize > rawLen {
		return nil, 0, 0, fmt.Errorf("%w: tuple count %d exceeds %d-byte raw payload", ErrCorrupt, count64, rawLen)
	}
	payload = buf[24 : 24+payLen]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, 0, fmt.Errorf("%w: block checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	return payload, int(count64), rawLen, nil
}

// chargeDecompress advances the simulated clock by the modelled time to
// inflate rawLen bytes.
func (t *Table) chargeDecompress(rawLen int64) {
	t.dev.Clock().Advance(time.Duration(float64(rawLen) / t.opts.DecompressRate * float64(time.Second)))
}

// decodeBlockBytes checks and decodes a block image, charging the modelled
// decompression time when charge is set. It never touches the cache.
func (t *Table) decodeBlockBytes(buf []byte, charge bool) ([]data.Tuple, error) {
	payload, count, rawLen, err := t.checkBlock(buf)
	if err != nil {
		return nil, err
	}
	return t.decodePayload(payload, count, rawLen, charge)
}

// decodePayload inflates a checked payload if the table is compressed and
// decodes its tuples.
func (t *Table) decodePayload(payload []byte, count int, rawLen int64, charge bool) ([]data.Tuple, error) {
	if t.opts.Compress {
		fr := flate.NewReader(bytes.NewReader(payload))
		raw, err := io.ReadAll(io.LimitReader(fr, rawLen+1))
		if err != nil {
			return nil, fmt.Errorf("storage: decompress: %w", err)
		}
		if err := fr.Close(); err != nil {
			return nil, fmt.Errorf("storage: decompress close: %w", err)
		}
		if int64(len(raw)) != rawLen {
			return nil, fmt.Errorf("%w: decompressed %d bytes, header claims %d", ErrCorrupt, len(raw), rawLen)
		}
		payload = raw
		if charge {
			t.chargeDecompress(rawLen)
		}
	}
	return DecodeRawTuples(payload, count)
}

// decodeRef checks a captured block and returns its tuples: the cached ones
// if a read has decoded the block before, else a fresh decode, which it
// installs in the cache. A cache hit skips only the inflate and the parse;
// it still checks the header and CRC, and charges the same modelled
// decompression time, so the set of failing reads and the simulated clock
// are the same either way.
func (t *Table) decodeRef(b blockRef, charge bool) ([]data.Tuple, error) {
	payload, count, rawLen, err := t.checkBlock(b.bytes)
	if err != nil {
		return nil, err
	}
	if b.tuples != nil {
		if t.opts.Compress && charge {
			t.chargeDecompress(rawLen)
		}
		return b.tuples, nil
	}
	tuples, err := t.decodePayload(payload, count, rawLen, charge)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen != b.gen {
		return tuples, nil
	}
	if cur := t.decoded[b.i]; cur != nil {
		return cur, nil // another reader decoded it first
	}
	t.decoded[b.i] = tuples
	return tuples, nil
}

// ScanAll reads every block in storage order, returning all tuples and
// charging sequential I/O. The block range is captured at entry: blocks
// appended while the scan runs are not included. The returned slice is the
// caller's, but the feature slices of its tuples are shared and read-only.
func (t *Table) ScanAll() ([]data.Tuple, error) {
	n := t.NumBlocks()
	out := make([]data.Tuple, 0, t.NumTuples())
	for i := 0; i < n; i++ {
		ts, err := t.ReadBlock(i)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// DecodeAll decodes every tuple without charging any simulated I/O. It is
// used for out-of-band model evaluation, which the paper's measurements
// also exclude from training time. Like ReadBlock it checks every block's
// header and CRC and decodes each block only once; the returned slice is
// the caller's, but the feature slices of its tuples are shared with the
// table's other readers and must not be modified.
func (t *Table) DecodeAll() ([]data.Tuple, error) {
	refs := t.refs()
	total := 0
	for _, b := range refs {
		total += b.m.Tuples
	}
	out := make([]data.Tuple, 0, total)
	for _, b := range refs {
		ts, err := t.decodeRef(b, false)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// ShuffleOnceCopy materializes a fully shuffled copy of the table — the
// Shuffle Once baseline. It charges the cost PostgreSQL's
// ORDER BY RANDOM() external sort pays: two sequential read passes and two
// sequential write passes over the data (run generation + merge), and it
// doubles the disk footprint, exactly the overheads Table 1 attributes to
// Shuffle Once.
func ShuffleOnceCopy(t *Table, rng *rand.Rand) (*Table, error) {
	tuples, err := t.ScanAll() // pass 1: read
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })

	size := t.SizeBytes()
	dev := t.dev
	// Run generation write, merge read, final write.
	dev.WriteAt(size, size)
	dev.ReadAt(size, size)
	dev.WriteAt(2*size, size)

	ds := &data.Dataset{
		Name:     t.Name + "-shuffled",
		Task:     t.task,
		Features: t.features,
		Classes:  t.classes,
		Tuples:   tuples,
	}
	opts := t.opts
	opts.ChargeBuild = false // write cost charged above
	return Build(dev, ds, opts)
}
