// Package executor implements the Volcano-style physical operators the
// paper adds to PostgreSQL (Section 6): BlockShuffle, TupleShuffle (with
// the double-buffering optimization), and SGD, plus a sequential Scan and a
// Predict operator. Operators follow PostgreSQL's pull model — Init/Next/
// ReScan/Close — and the SGD operator drives multi-epoch training through
// the re-scan mechanism exactly as the paper describes.
package executor

import "corgipile/internal/data"

// Operator is a pull-based physical operator producing tuples.
type Operator interface {
	// Init prepares operator state (buffers, shuffled block ids).
	Init() error
	// Next returns the next tuple; ok=false ends the current scan. The
	// tuple may be shared with the storage layer and is read-only.
	Next() (t *data.Tuple, ok bool, err error)
	// ReScan resets the operator to produce a fresh scan — for shuffle
	// operators, with fresh randomness. It mirrors PostgreSQL's
	// ExecReScan, which the SGD operator invokes between epochs.
	ReScan() error
	// Close releases operator resources.
	Close() error
}
