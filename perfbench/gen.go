package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"corgipile/internal/data"
)

// This file generates every input the benchmark hands to the program. All
// of it is a pure function of the -seed argument: the same seed gives the
// same bytes. The program never sees the seed, only the generated data.

// Stream offsets keep the generators independent: the table, the INSERT
// rows and the in-memory dataset of one seed never share a random stream.
const (
	streamHiggs   = 1
	streamSusy    = 2
	streamInserts = 3
	streamEps     = 4
)

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// bTagValues are the three levels of a HIGGS b-tag feature. Level 0 is a
// true zero, which LIBSVM omits, so tuples carry a seed-dependent number of
// stored features and block boundaries move with the seed.
var bTagValues = [3]float64{0, 1.0865, 2.173}

// labelNoise is the share of tuples whose stored label disagrees with the
// class their features were drawn from. The classes themselves separate
// well, so the noise sets the reachable training accuracy, about
// 1 - labelNoise on every seed, and accuracy checks do not wander with
// the seed.
const labelNoise = 0.1

// drawClass returns the class a tuple stored with label y is drawn from.
func drawClass(rng *rand.Rand, y float64) float64 {
	if rng.Float64() < labelNoise {
		return -y
	}
	return y
}

// higgsLike returns n binary tuples with 28 features, clustered by label:
// every -1 tuple precedes every +1 tuple, the paper's worst case for No
// Shuffle. 24 features are class-shifted Gaussians; 4 are b-tag levels
// whose distribution depends on the class.
func higgsLike(n int, seed int64) *data.Dataset {
	const features = 28
	rng := rngFor(seed, streamHiggs)
	ds := &data.Dataset{Name: "higgs-like", Task: data.TaskBinary, Features: features, Classes: 2}
	ds.Tuples = make([]data.Tuple, n)
	for i := range ds.Tuples {
		y := -1.0
		if i >= n/2 {
			y = 1
		}
		class := drawClass(rng, y)
		x := make([]float64, features)
		for j := range x {
			if j%7 == 6 {
				// b-tag: the positive class is tagged more often.
				p0 := 0.55 - 0.15*class
				u := rng.Float64()
				switch {
				case u < p0:
					x[j] = bTagValues[0]
				case u < p0+(1-p0)/2:
					x[j] = bTagValues[1]
				default:
					x[j] = bTagValues[2]
				}
				continue
			}
			x[j] = class*classShift(j) + rng.NormFloat64()
		}
		ds.Tuples[i] = data.Tuple{ID: int64(i), Label: y, Dense: x}
	}
	return ds
}

// classShift is the per-feature class separation of the higgs- and
// SUSY-like data. It is fixed, not drawn from the seed, so every seed poses
// a problem of the same difficulty and INSERT rows drawn later follow the
// loaded table's distribution.
func classShift(j int) float64 { return 0.15 * float64(j%4+1) }

// susyLike returns n binary tuples with 18 class-shifted Gaussian features,
// clustered by label, the shape of the paper's SUSY dataset.
func susyLike(n int, seed int64) *data.Dataset {
	return susyRows(rngFor(seed, streamSusy), n, true)
}

// susyRows draws n SUSY-shaped tuples from rng; clustered puts every -1
// tuple first, otherwise labels are drawn at random.
func susyRows(rng *rand.Rand, n int, clustered bool) *data.Dataset {
	const features = 18
	ds := &data.Dataset{Name: "susy-like", Task: data.TaskBinary, Features: features, Classes: 2}
	ds.Tuples = make([]data.Tuple, n)
	for i := range ds.Tuples {
		y := -1.0
		if clustered && i >= n/2 || !clustered && rng.Intn(2) == 1 {
			y = 1
		}
		class := drawClass(rng, y)
		x := make([]float64, features)
		for j := range x {
			x[j] = class*classShift(j) + rng.NormFloat64()
		}
		ds.Tuples[i] = data.Tuple{ID: int64(i), Label: y, Dense: x}
	}
	return ds
}

// epsSignal is the epsilon-like class signal: strong enough that the
// classes separate, leaving labelNoise to set the accuracy.
const epsSignal = 0.15

// epsilonLike returns n dense tuples with d features, rows scaled to unit
// L2 norm like the PASCAL epsilon dataset, clustered by label.
func epsilonLike(n, d int, seed int64) *data.Dataset {
	rng := rngFor(seed, streamEps)
	dir := make([]float64, d)
	for j := range dir {
		dir[j] = rng.NormFloat64()
	}
	ds := &data.Dataset{Name: "epsilon-like", Task: data.TaskBinary, Features: d, Classes: 2}
	ds.Tuples = make([]data.Tuple, n)
	// One backing array keeps the 8·n·d bytes contiguous, as a loaded
	// dataset would be.
	backing := make([]float64, n*d)
	for i := range ds.Tuples {
		y := -1.0
		if i >= n/2 {
			y = 1
		}
		class := drawClass(rng, y)
		x := backing[i*d : (i+1)*d : (i+1)*d]
		var norm float64
		for j := range x {
			x[j] = epsSignal*class*dir[j] + rng.NormFloat64()
			norm += x[j] * x[j]
		}
		inv := 1 / math.Sqrt(norm)
		for j := range x {
			x[j] *= inv
		}
		ds.Tuples[i] = data.Tuple{ID: int64(i), Label: y, Dense: x}
	}
	return ds
}

// writeLIBSVM writes ds as a LIBSVM text file: 1-based indices, exact
// shortest float formatting, zeros omitted.
func writeLIBSVM(path string, ds *data.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 1024)
	for i := range ds.Tuples {
		t := &ds.Tuples[i]
		buf = strconv.AppendFloat(buf[:0], t.Label, 'g', -1, 64)
		for j, v := range t.Dense {
			if v == 0 {
				continue
			}
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(j+1), 10)
			buf = append(buf, ':')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// insertBatches draws count INSERT statements of rows tuples each into
// table, from the seed's insert stream. It also returns the encoded size
// of each statement's tuples as the table stores them (dense).
func insertBatches(table string, count, rows int, seed int64) (stmts []string, userBytes []int) {
	rng := rngFor(seed, streamInserts)
	stmts = make([]string, count)
	userBytes = make([]int, count)
	for k := range stmts {
		ds := susyRows(rng, rows, false)
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
		for i := range ds.Tuples {
			t := &ds.Tuples[i]
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			b.WriteString(strconv.FormatFloat(t.Label, 'g', -1, 64))
			for _, v := range t.Dense {
				b.WriteString(", ")
				// The SQL lexer reads plain decimals only, no exponents.
				b.WriteString(strconv.FormatFloat(v, 'f', 6, 64))
			}
			b.WriteString(")")
			userBytes[k] += t.EncodedSize()
		}
		stmts[k] = b.String()
	}
	return stmts, userBytes
}
