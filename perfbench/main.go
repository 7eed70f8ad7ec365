// Command perfbench is the repository's wall-clock benchmark. One run
// drives one workload through the program's public entry points for a
// fixed time, checks the program's outputs, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload sql-train --seed 1 --seconds 15 --trace 0
//
// Workloads: sql-train (SQL TRAIN on a db.Session) and serve-mixed
// (PREDICT, INSERT and background TRAIN against an in-process serve.Server
// over loopback TCP). With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of the layer ladder and
// writes the recorded spans under .bench_build/spans/. NOTES.md describes
// the workloads, the metrics and how each layer maps to an end-to-end
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates one run: metric values, operation counts and the
// output checks that failed.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	bad       []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// set records metric name, whose unit comes from the metric tables.
func (o *outcome) set(name string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// check records a failed output check; a nil error is a pass.
func (o *outcome) check(err error) {
	if err != nil {
		o.bad = append(o.bad, err.Error())
	}
}

// op counts one attempted operation and whether it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
	}
}

// ops counts n attempted operations of which failed failed.
func (o *outcome) ops(n, failed int) {
	o.attempted += n
	o.failed += failed
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// dir is the run's scratch directory (input files, WAL directories).
	dir string
	sz  sizes
}

// sizes fixes the load. fullSizes is the benchmark; the package tests use
// a much smaller copy.
type sizes struct {
	sqlTuples, sqlEpochs                    int
	batchTuples, batchFeatures, batchEpochs int
	serveTuples, serveTrainEpochs           int
	predictRate, insertRate                 float64 // requests per second
	insertRows                              int
	trainEvery                              time.Duration
	setupReps                               int
	// ladderReps is how many times each ladder rung is timed (median).
	ladderReps int
	// overheadWindow is the length of each of the untraced and traced
	// workload runs a traced invocation alternates, ladderReps pairs of
	// them, for bench.trace_overhead_ratio.
	overheadWindow time.Duration
}

var fullSizes = sizes{
	sqlTuples: 100_000, sqlEpochs: 5,
	batchTuples: 10_000, batchFeatures: 2000, batchEpochs: 3,
	serveTuples: 20_000, serveTrainEpochs: 10,
	predictRate: 60, insertRate: 5, insertRows: 16,
	trainEvery: 4 * time.Second,
	setupReps:  5, ladderReps: 5,
	overheadWindow: 2 * time.Second,
}

// accFloor is the lowest final training accuracy each workload accepts.
// Measured final accuracies sit well above it on every seed tried (see
// NOTES.md); dropping below means training stopped converging.
var accFloor = map[string]float64{
	"sql-train":   0.80,
	"batch-train": 0.85,
	"serve-mixed": 0.80,
}

// trainSeed seeds every shuffle and model the benchmark trains. The -seed
// argument varies the data; the training configuration, its shuffle seed
// included, is part of the workload and stays fixed, so runs at different
// seeds see the same class sequence and do the same amount of work.
const trainSeed = 1

type workloadFunc func(cfg *config, tr *tracer, o *outcome) error

var workloads = map[string]workloadFunc{
	"sql-train":   runSQLTrain,
	"serve-mixed": runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: sql-train or serve-mixed")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// A hung server or client must not hold the caller past its limit:
	// give up, without a result line, well inside 180 seconds.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s; giving up")
		os.Exit(3)
	})
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := &config{
		workload: *workload, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1, dir: dir, sz: fullSizes,
	}
	res, err := execute(cfg, filepath.Join(root, ".bench_build", "spans"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs cfg and assembles its result. Failed output checks yield a
// result with Correct false; an error means the run itself broke.
func execute(cfg *config, spanDir string) (*result, error) {
	o := newOutcome()
	if cfg.trace {
		tr := newTracer()
		if err := runTraced(cfg, tr, o); err != nil {
			return nil, err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	} else if err := workloads[cfg.workload](cfg, nil, o); err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := sameNames(o.metrics, want); err != nil {
		return nil, err
	}
	for _, b := range o.bad {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", b)
	}
	if o.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return &result{Correct: len(o.bad) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}, nil
}

// sameNames reports a difference between the emitted metric names and the
// declared table.
func sameNames(got map[string]metric, want []metricDef) error {
	var missing, extra []string
	declared := make(map[string]bool)
	for _, d := range want {
		declared[d.name] = true
		if _, ok := got[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
