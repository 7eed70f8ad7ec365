package shuffle

import (
	"fmt"
	"math/rand"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/obs"
)

// Kind names a shuffling strategy.
type Kind string

// The strategies compared in the paper (Section 3 plus CorgiPile).
const (
	KindNoShuffle     Kind = "no_shuffle"
	KindShuffleOnce   Kind = "shuffle_once"
	KindEpochShuffle  Kind = "epoch_shuffle"
	KindSlidingWindow Kind = "sliding_window"
	KindMRS           Kind = "mrs"
	KindBlockOnly     Kind = "block_only"
	KindCorgiPile     Kind = "corgipile"
)

// Kinds lists every strategy in presentation order.
var Kinds = []Kind{
	KindNoShuffle, KindShuffleOnce, KindEpochShuffle,
	KindSlidingWindow, KindMRS, KindBlockOnly, KindCorgiPile,
}

// Options configures a strategy.
type Options struct {
	// BufferFraction is the in-memory buffer size as a fraction of the
	// dataset (the paper's default is 0.10). It sizes CorgiPile's block
	// buffer, the sliding window, and the MRS reservoir alike, so the
	// strategies compete with equal memory.
	BufferFraction float64
	// Seed seeds the strategy's random choices.
	Seed int64
	// DoubleBuffer enables CorgiPile's double-buffering optimization
	// (Section 6.3), overlapping block I/O with SGD compute.
	DoubleBuffer bool
	// PerTupleCopyCost is the CPU cost of copying one tuple into a shuffle
	// buffer; it models the 11.7% overhead CorgiPile pays over No Shuffle.
	// Zero selects the default of 60ns.
	PerTupleCopyCost time.Duration
	// MRSLoopEvery controls how often the MRS loop "thread" injects a
	// buffered tuple between scanned tuples (default 2, i.e. one buffered
	// tuple per two scanned).
	MRSLoopEvery int
	// SampleOnly makes CorgiPile follow Algorithm 1 literally: each epoch
	// trains on ONE buffer of n blocks sampled without replacement (n·b
	// tuples) instead of streaming every block through the buffer. This is
	// the regime the convergence theorems analyze (one epoch = n·b
	// updates); the systems integrations use the full-stream variant.
	SampleOnly bool
	// Obs, when non-nil, receives refill counts and buffer fill/consume
	// times under the obs.Shuffle* metric names, making strategy I/O
	// behaviour visible in the cross-layer epoch breakdown.
	Obs *obs.Registry
	// Resilience, when enabled, wraps the source with retry/backoff and the
	// configured corrupt-block degrade policy before the strategy sees it.
	Resilience Resilience
	// FaultReport, when non-nil, receives the resilient source's fault
	// accounting so the caller can surface it in results. Ignored unless
	// Resilience is enabled.
	FaultReport *FaultReport
}

func (o Options) withDefaults() Options {
	if o.BufferFraction <= 0 {
		o.BufferFraction = 0.10
	}
	if o.PerTupleCopyCost == 0 {
		o.PerTupleCopyCost = 60 * time.Nanosecond
	}
	if o.MRSLoopEvery <= 0 {
		o.MRSLoopEvery = 2
	}
	return o
}

// bufferTuples converts the buffer fraction into a tuple count, at least 1.
func (o Options) bufferTuples(total int) int {
	n := int(o.BufferFraction * float64(total))
	if n < 1 {
		n = 1
	}
	return n
}

// Iterator streams one epoch's tuples. After Next returns ok=false, Err
// reports whether the epoch ended normally or on a storage error. The
// tuples may be shared with the source's other readers and are read-only.
type Iterator interface {
	Next() (t *data.Tuple, ok bool)
	Err() error
}

// Strategy produces per-epoch tuple streams over a Source.
type Strategy interface {
	// Name returns the strategy kind.
	Name() Kind
	// StartEpoch begins epoch s (0-based) and returns its tuple stream.
	StartEpoch(s int) (Iterator, error)
}

// New constructs the named strategy over src. Shuffle Once pays its full
// preprocessing cost inside New, so construction time is part of the
// end-to-end measurements exactly as in Figure 11.
func New(kind Kind, src Source, opts Options) (Strategy, error) {
	opts = opts.withDefaults()
	if opts.Resilience.Enabled() {
		src, _ = NewResilientSource(src, opts.Resilience, opts.Obs, opts.FaultReport)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	switch kind {
	case KindNoShuffle:
		return &noShuffle{src: src, reg: opts.Obs}, nil
	case KindBlockOnly:
		return &blockOnly{src: src, rng: rng, reg: opts.Obs}, nil
	case KindShuffleOnce:
		fs, ok := src.(FullShuffler)
		if !ok {
			return nil, fmt.Errorf("shuffle: %s requires a FullShuffler source", kind)
		}
		shuf, err := fs.ShuffledCopy(rng)
		if err != nil {
			return nil, fmt.Errorf("shuffle: shuffle-once preprocessing: %w", err)
		}
		return &noShuffleNamed{noShuffle{src: shuf, reg: opts.Obs}, KindShuffleOnce}, nil
	case KindEpochShuffle:
		fs, ok := src.(FullShuffler)
		if !ok {
			return nil, fmt.Errorf("shuffle: %s requires a FullShuffler source", kind)
		}
		return &epochShuffle{src: fs, rng: rng, reg: opts.Obs}, nil
	case KindSlidingWindow:
		return &slidingWindow{src: src, opts: opts, rng: rng}, nil
	case KindMRS:
		return &mrs{src: src, opts: opts, rng: rng}, nil
	case KindCorgiPile:
		return &corgiPile{src: src, opts: opts, rng: rng}, nil
	}
	return nil, fmt.Errorf("shuffle: unknown strategy %q", kind)
}
