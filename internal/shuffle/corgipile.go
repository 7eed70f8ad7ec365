package shuffle

import (
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/obs"
)

// corgiPile implements the paper's two-level hierarchical shuffle
// (Algorithm 1, operationalized as in the PostgreSQL/PyTorch
// integrations): each epoch the block order is shuffled (block-level
// shuffle over all N blocks), then blocks are pulled n at a time into an
// in-memory buffer whose tuples are shuffled before being emitted
// (tuple-level shuffle). Every tuple is visited exactly once per epoch.
// The buffer shuffles references to the tuples the source returned, not
// the tuples, then copies the tuple headers out in shuffled order, so the
// consumer reads them sequentially.
//
// With DoubleBuffer set, buffer refills overlap with SGD consumption: fill
// and consume durations are measured on the shared clock and recombined
// through an iosim.Pipeline, reproducing the Section 6.3 optimization.
type corgiPile struct {
	src  Source
	opts Options
	rng  *rand.Rand
}

// Name implements Strategy.
func (*corgiPile) Name() Kind { return KindCorgiPile }

// StartEpoch implements Strategy.
func (s *corgiPile) StartEpoch(int) (Iterator, error) {
	// Buffer capacity in blocks (the paper's n), from the tuple budget.
	total := s.src.NumTuples()
	blocks := s.src.NumBlocks()
	avgPerBlock := (total + blocks - 1) / blocks
	if avgPerBlock < 1 {
		avgPerBlock = 1
	}
	n := s.opts.bufferTuples(total) / avgPerBlock
	if n < 1 {
		n = 1
	}
	perm := s.rng.Perm(blocks)
	if s.opts.SampleOnly && n < len(perm) {
		// Algorithm 1: one buffer of n sampled blocks per epoch.
		perm = perm[:n]
	}
	it := &corgiIter{
		src:    s.src,
		perm:   perm,
		nBuf:   n,
		bufCap: s.opts.bufferTuples(total),
		rng:    s.rng,
		clock:  s.src.Clock(),
		copyC:  s.opts.PerTupleCopyCost,
		double: s.opts.DoubleBuffer,
		reg:    s.opts.Obs,
	}
	if it.double && it.clock != nil {
		it.pipe = iosim.NewPipeline(2, it.clock.Now())
	}
	return it, nil
}

type corgiIter struct {
	src    Source
	perm   []int
	next   int           // next position in perm
	nBuf   int           // blocks per buffer (the paper's n)
	bufCap int           // tuple budget of one buffer, for the occupancy gauge
	refs   []*data.Tuple // the buffered tuples, shuffled by reference
	buf    []data.Tuple  // their headers in shuffled order, emitted in turn
	pos    int
	rng    *rand.Rand
	clock  *iosim.Clock
	reg    *obs.Registry
	copyC  time.Duration
	err    error

	double    bool
	pipe      *iosim.Pipeline
	consStart time.Duration
	consuming bool
}

// Next implements Iterator.
func (it *corgiIter) Next() (*data.Tuple, bool) {
	for it.pos >= len(it.buf) {
		if it.err != nil || it.next >= len(it.perm) {
			it.finishPipeline()
			return nil, false
		}
		it.refill()
		if it.err != nil {
			it.finishPipeline()
			return nil, false
		}
	}
	t := &it.buf[it.pos]
	it.pos++
	return t, true
}

// Err implements Iterator.
func (it *corgiIter) Err() error { return it.err }

// refill loads the next n blocks into the buffer and shuffles its tuples.
func (it *corgiIter) refill() {
	var fillStartNow time.Duration
	if it.pipe != nil {
		// Close out the consume phase of the previous buffer.
		if it.consuming {
			it.consumeFor(it.clock.Now() - it.consStart)
		}
	}
	if it.clock != nil {
		fillStartNow = it.clock.Now()
	}
	sp := it.reg.Span(obs.SpanRefill)

	it.refs = it.refs[:0]
	it.buf = it.buf[:0]
	it.pos = 0
	blocks := 0
	for count := 0; count < it.nBuf && it.next < len(it.perm); count++ {
		ts, err := it.src.ReadBlock(it.perm[it.next])
		if err != nil {
			it.err = err
			sp.End()
			return
		}
		it.next++
		blocks++
		for j := range ts {
			it.refs = append(it.refs, &ts[j])
		}
	}
	// Tuple-level shuffle plus the per-tuple buffer-copy cost.
	if it.clock != nil && it.copyC > 0 {
		it.clock.Advance(time.Duration(len(it.refs)) * it.copyC)
	}
	it.rng.Shuffle(len(it.refs), func(i, j int) {
		it.refs[i], it.refs[j] = it.refs[j], it.refs[i]
	})
	for _, t := range it.refs {
		it.buf = append(it.buf, *t)
	}

	sp.End()
	it.reg.Inc(obs.ShuffleRefills)
	it.reg.Add(obs.ShuffleBlocks, int64(blocks))
	// Live-only gauges: recorded when a telemetry server enabled live mode,
	// so passive traces are unchanged.
	it.reg.SetLiveGauge(obs.ShuffleBufferTuples, float64(len(it.buf)))
	if it.bufCap > 0 {
		it.reg.SetLiveGauge(obs.ShuffleBufferOccupancy,
			float64(len(it.buf))/float64(it.bufCap))
	}
	if it.clock != nil {
		it.reg.AddDuration(obs.ShuffleFillNanos, it.clock.Now()-fillStartNow)
	}
	if it.pipe != nil {
		fillCost := it.clock.Now() - fillStartNow
		consStart := it.pipe.Fill(fillCost)
		it.clock.Set(consStart)
		it.consStart = consStart
		it.consuming = true
	}
}

// consumeFor closes one consume interval on the pipeline and reports it.
func (it *corgiIter) consumeFor(d time.Duration) {
	it.pipe.Consume(d)
	it.reg.AddDuration(obs.ShuffleConsumeNanos, d)
}

// finishPipeline closes the last consume phase and sets the clock to the
// pipelined completion time.
func (it *corgiIter) finishPipeline() {
	if it.pipe == nil || !it.consuming {
		return
	}
	it.consumeFor(it.clock.Now() - it.consStart)
	it.clock.Set(it.pipe.End())
	it.consuming = false
}
