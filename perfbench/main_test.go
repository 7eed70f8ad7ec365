package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testSizes shrinks every workload so a run takes a few seconds while
// still exercising each output check.
var testSizes = sizes{
	sqlTuples: 20_000, sqlEpochs: 5,
	batchTuples: 2000, batchFeatures: 200, batchEpochs: 3,
	serveTuples: 4000, serveTrainEpochs: 3,
	predictRate: 40, insertRate: 10, insertRows: 16,
	trainEvery: time.Second,
	setupReps:  1, ladderReps: 1,
	overheadWindow: time.Second,
}

func testConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 3, window: 2 * time.Second,
		trace: trace, dir: t.TempDir(), sz: testSizes,
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	compare := func(kind string, declared []struct{ Name, Unit, Better string }, table []metricDef) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(declared), len(table))
		}
		for i := 0; i < len(declared) && i < len(table); i++ {
			if declared[i].Name != table[i].name || declared[i].Unit != table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, table[i].name, table[i].unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, workloadNames())
	}
}

// TestWorkloadsShort runs every workload briefly: each output check runs
// and passes, and the result carries exactly the end-to-end metrics.
func TestWorkloadsShort(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := execute(testConfig(t, name, false), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for n, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive finite value", n, m.Value)
				}
			}
		})
	}
}

// TestTracedShort runs the traced ladder once: every per-layer metric is
// present and the spans reach disk.
func TestTracedShort(t *testing.T) {
	spans := t.TempDir()
	res, err := execute(testConfig(t, "sql-train", true), spans)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("traced run failed its output checks")
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", n, m.Value)
		}
	}
	info, err := os.Stat(filepath.Join(spans, "sql-train-seed3.jsonl"))
	if err != nil || info.Size() == 0 {
		t.Fatalf("no spans written: %v", err)
	}
}

// TestTrainChecksRejectTampering feeds real training results, altered one
// way at a time, to the training checks.
func TestTrainChecksRejectTampering(t *testing.T) {
	cfg := testConfig(t, "sql-train", false)
	path, err := writeHiggsFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSQLTable(path)
	if err != nil {
		t.Fatal(err)
	}
	stmt := sqlTrainStmt(cfg.sz.sqlEpochs)
	var calls []trainCall
	for i := 0; i < 2; i++ {
		c, err := execTrain(s, stmt, span{})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	n := cfg.sz.sqlTuples
	if err := checkTrainCalls("sql-train", calls, cfg.sz.sqlEpochs, n); err != nil {
		t.Fatalf("untampered calls fail: %v", err)
	}
	tamper := map[string]func(c *trainCall){
		"loss bit":  func(c *trainCall) { c.losses[1] = math.Float64frombits(math.Float64bits(c.losses[1]) ^ 1) },
		"row count": func(c *trainCall) { c.losses, c.tuples = c.losses[:1], c.tuples[:1] },
		"tuples":    func(c *trainCall) { c.tuples[0]-- },
		"accuracy":  func(c *trainCall) { c.acc = 0.5 },
	}
	for name, f := range tamper {
		bad := []trainCall{calls[0], copyCall(calls[1])}
		f(&bad[1])
		if err := checkTrainCalls("sql-train", bad, cfg.sz.sqlEpochs, n); err == nil {
			t.Errorf("tampered %s passed the check", name)
		}
	}
}

func copyCall(c trainCall) trainCall {
	c.losses = append([]float64(nil), c.losses...)
	c.tuples = append([]int(nil), c.tuples...)
	return c
}

// TestServeChecksRejectTampering drives a real serve-mixed window, then
// alters its accounting one way at a time.
func TestServeChecksRejectTampering(t *testing.T) {
	cfg := testConfig(t, "serve-mixed", false)
	ld, rig, err := serveWindow(cfg, nil, newOutcome(), cfg.window, 1)
	if err != nil {
		t.Fatal(err)
	}
	live, reopened, err := finishServe(rig)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServe(ld, rig.initial, live, reopened); err != nil {
		t.Fatalf("untampered window fails: %v", err)
	}
	if ld.ackedRows == 0 {
		t.Fatal("no INSERT was acknowledged")
	}
	bad := *ld
	bad.ackedRows += cfg.sz.insertRows
	if checkServe(&bad, rig.initial, live, reopened) == nil {
		t.Error("an unaccounted INSERT passed the check")
	}
	if checkServe(ld, rig.initial, live, reopened-1) == nil {
		t.Error("a tuple lost on WAL reopen passed the check")
	}
	bad = *ld
	bad.predictErrs = 1
	if checkServe(&bad, rig.initial, live, reopened) == nil {
		t.Error("a failed PREDICT passed the check")
	}
	bad = *ld
	bad.insertErrs = 1
	if checkServe(&bad, rig.initial, live, reopened) == nil {
		t.Error("a failed INSERT passed the check")
	}
	bad = *ld
	bad.badPredicts = 1
	if checkServe(&bad, rig.initial, live, reopened) == nil {
		t.Error("a PREDICT without its LIMIT row passed the check")
	}
	bad = *ld
	bad.jobs = append(bad.jobs[:0:0], ld.jobs...)
	bad.jobs[0].State = "failed"
	if checkServe(&bad, rig.initial, live, reopened) == nil {
		t.Error("a failed TRAIN job passed the check")
	}
}
