package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"corgipile/internal/db"
)

// sql-train: the paper's in-DB path. A higgs-shaped clustered table is
// loaded from a LIBSVM file into a db.Session; each call is one SQL TRAIN
// statement of logistic regression with per-tuple SGD under CorgiPile,
// issued back to back (closed loop, one caller) for the measured window.

// trainCall is one completed training call and what it returned.
type trainCall struct {
	wall time.Duration
	// tuples is the per-epoch tuple count the call reported.
	tuples []int
	// losses is the per-epoch mean loss, compared bit for bit.
	losses []float64
	acc    float64
}

func (c trainCall) total() int {
	n := 0
	for _, t := range c.tuples {
		n += t
	}
	return n
}

func sqlTrainStmt(epochs int) string {
	return fmt.Sprintf("SELECT * FROM t TRAIN BY lr MODEL m WITH learning_rate=0.01, max_epoch_num=%d, shuffle='corgipile', seed=%d",
		epochs, trainSeed)
}

// writeHiggsFile generates the sql-train table's LIBSVM file.
func writeHiggsFile(cfg *config) (string, error) {
	path := filepath.Join(cfg.dir, "higgs.libsvm")
	if err := writeLIBSVM(path, higgsLike(cfg.sz.sqlTuples, cfg.seed)); err != nil {
		return "", fmt.Errorf("write input: %w", err)
	}
	return path, nil
}

// loadSQLTable opens a session and loads path as table t.
func loadSQLTable(path string) (*db.Session, error) {
	s := db.NewSession()
	if _, err := s.Exec(fmt.Sprintf("CREATE TABLE t FROM '%s' WITH device='ssd', block_size=64KB", path)); err != nil {
		return nil, fmt.Errorf("load table: %w", err)
	}
	return s, nil
}

// execTrain runs one TRAIN statement and reads back the stored model's
// epoch rows.
func execTrain(s *db.Session, stmt string, sp span) (trainCall, error) {
	t0 := time.Now()
	res, err := s.Exec(stmt)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		return trainCall{}, err
	}
	m, ok := s.Model("m")
	if !ok {
		return trainCall{}, fmt.Errorf("TRAIN stored no model m")
	}
	if len(res.Rows) != len(m.Epochs) {
		return trainCall{}, fmt.Errorf("TRAIN returned %d rows for %d epochs", len(res.Rows), len(m.Epochs))
	}
	c := trainCall{wall: wall}
	for _, e := range m.Epochs {
		c.tuples = append(c.tuples, e.Tuples)
		c.losses = append(c.losses, e.Loss)
		c.acc = e.Accuracy
	}
	return c, nil
}

func runSQLTrain(cfg *config, tr *tracer, o *outcome) error {
	path, err := writeHiggsFile(cfg)
	if err != nil {
		return err
	}
	var s *db.Session
	var setup []float64
	for i := 0; i < cfg.sz.setupReps; i++ {
		settle()
		t0 := time.Now()
		s, err = loadSQLTable(path)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	entry, _ := s.Table("t")
	tableTuples := entry.Table.NumTuples()
	stmt := sqlTrainStmt(cfg.sz.sqlEpochs)

	settle()
	heap := startHeapSampler(5 * time.Millisecond)
	var calls []trainCall
	for deadline := time.Now().Add(cfg.window); len(calls) == 0 || time.Now().Before(deadline); {
		sp := tr.begin("db.Session.Exec(TRAIN)")
		c, err := execTrain(s, stmt, sp)
		o.op(err)
		if err != nil {
			heap.stopMiB()
			return fmt.Errorf("TRAIN: %w", err)
		}
		calls = append(calls, c)
	}
	peak := heap.stopMiB()

	o.check(checkTrainCalls("sql-train", calls, cfg.sz.sqlEpochs, tableTuples))
	reportTraining(o, setup, calls, peak)
	return nil
}

// reportTraining sets the end-to-end metrics of a training workload.
func reportTraining(o *outcome, setup []float64, calls []trainCall, peakMiB float64) {
	var rates, lat []float64
	for _, c := range calls {
		rates = append(rates, float64(c.total())/c.wall.Seconds())
		lat = append(lat, ms(c.wall))
	}
	o.set("setup_s", median(setup))
	o.set("train_tuples_per_s", median(rates))
	o.set("final_acc", calls[len(calls)-1].acc)
	o.set("op_p50_ms", quantile(lat, 0.5))
	o.set("op_p95_ms", quantile(lat, 0.95))
	o.set("peak_heap_mb", peakMiB)
}

// checkTrainCalls checks a run of identical training calls: each returns
// one row per epoch, each row covers every tuple, every call's loss trace
// is bit-identical to the first's, and the final accuracy clears the
// workload's floor.
func checkTrainCalls(name string, calls []trainCall, epochs, tuples int) error {
	if len(calls) == 0 {
		return fmt.Errorf("%s: no completed call", name)
	}
	for i, c := range calls {
		if len(c.tuples) != epochs || len(c.losses) != epochs {
			return fmt.Errorf("%s: call %d returned %d epoch rows, want %d", name, i, len(c.tuples), epochs)
		}
		for e, n := range c.tuples {
			if n != tuples {
				return fmt.Errorf("%s: call %d epoch %d covered %d tuples, table has %d", name, i, e+1, n, tuples)
			}
		}
		if err := sameTrace(calls[0].losses, c.losses); err != nil {
			return fmt.Errorf("%s: call %d vs call 0: %w", name, i, err)
		}
	}
	return checkFloor(name, calls[len(calls)-1].acc)
}

// checkFloor checks a workload's final accuracy against its floor.
func checkFloor(name string, acc float64) error {
	if floor := accFloor[name]; !(acc >= floor) {
		return fmt.Errorf("%s: final accuracy %.4f below floor %.2f", name, acc, floor)
	}
	return nil
}

// sameTrace reports the first epoch where two loss traces differ in any bit.
func sameTrace(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("loss trace has %d epochs, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("epoch %d loss %v, want %v", i+1, got[i], want[i])
		}
	}
	return nil
}
