package db

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

func TestCreateShowDrop(t *testing.T) {
	s := NewSession()
	res, err := s.Exec(`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered') WITH device='ssd', block_size=64KB`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "CREATE TABLE") {
		t.Fatalf("message = %q", res.Message)
	}

	res, err = s.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "t" || res.Rows[0][4] != "ssd" {
		t.Fatalf("SHOW TABLES rows = %v", res.Rows)
	}

	if _, err := s.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Exec("SHOW TABLES")
	if len(res.Rows) != 0 {
		t.Fatal("table not dropped")
	}
}

func TestCreateDuplicateAndUnknowns(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`)
	if _, err := s.Exec(`CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`); err == nil {
		t.Fatal("duplicate table should error")
	}
	if _, err := s.Exec(`CREATE TABLE u AS SYNTHETIC(workload='nope')`); err == nil {
		t.Fatal("unknown workload should error")
	}
	if _, err := s.Exec(`CREATE TABLE u AS SYNTHETIC(workload='susy') WITH device='tape'`); err == nil {
		t.Fatal("unknown device should error")
	}
	if _, err := s.Exec(`CREATE TABLE u AS SYNTHETIC(workload='susy', order='sideways')`); err == nil {
		t.Fatal("unknown order should error")
	}
	if _, err := s.Exec(`DROP TABLE missing`); err == nil {
		t.Fatal("dropping missing table should error")
	}
	if _, err := s.Exec(`DROP MODEL missing`); err == nil {
		t.Fatal("dropping missing model should error")
	}
	if _, err := s.Exec(`SELECT * FROM missing TRAIN BY svm`); err == nil {
		t.Fatal("training on missing table should error")
	}
	if _, err := s.Exec(`SELECT * FROM t PREDICT BY missing`); err == nil {
		t.Fatal("predicting with missing model should error")
	}
}

// TestSyntheticSeed: SYNTHETIC(seed=...) seeds the generator. Equal seeds
// give identical tables, a different seed a different one, and no seed at
// all keeps the workload's own generator seed.
func TestSyntheticSeed(t *testing.T) {
	s := NewSession()
	tuples := func(name, seedArg string) []data.Tuple {
		t.Helper()
		mustExec(t, s, `CREATE TABLE `+name+` AS SYNTHETIC(workload='susy', scale=0.02`+seedArg+`)`)
		e, ok := s.Table(name)
		if !ok {
			t.Fatalf("table %s missing", name)
		}
		ts, err := e.Table.DecodeAll()
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	a := tuples("a", ", seed=7")
	b := tuples("b", ", seed=7")
	c := tuples("c", ", seed=8")
	def := tuples("d", "")
	base := tuples("e", fmt.Sprintf(", seed=%d", data.Workloads["susy"].Base.Seed))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different tables")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same table")
	}
	if !reflect.DeepEqual(def, base) {
		t.Fatal("omitting seed no longer gives the workload's generator seed")
	}
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestTrainAndPredictEndToEnd(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.1, order='clustered') WITH device='ssd', block_size=32KB`)
	res := mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m1 WITH learning_rate=0.05, max_epoch_num=5, shuffle='corgipile'`)
	if len(res.Rows) != 5 {
		t.Fatalf("train returned %d epoch rows, want 5", len(res.Rows))
	}
	// Accuracy column must be sensible (>0.5 on susy-like).
	acc, err := strconv.ParseFloat(res.Rows[4][2], 64)
	if err != nil || acc < 0.6 {
		t.Fatalf("final accuracy %q too low", res.Rows[4][2])
	}
	// Simulated seconds must be monotone.
	prev := -1.0
	for _, row := range res.Rows {
		sec, _ := strconv.ParseFloat(row[3], 64)
		if sec < prev {
			t.Fatalf("seconds not monotone: %v after %v", sec, prev)
		}
		prev = sec
	}

	pres := mustExec(t, s, `SELECT * FROM t PREDICT BY m1 LIMIT 7`)
	if len(pres.Rows) != 7 {
		t.Fatalf("predict returned %d rows, want 7", len(pres.Rows))
	}
	if !strings.Contains(pres.Message, "accuracy") {
		t.Fatalf("predict message = %q", pres.Message)
	}

	sres := mustExec(t, s, `SHOW MODELS`)
	if len(sres.Rows) != 1 || sres.Rows[0][0] != "m1" || sres.Rows[0][1] != "svm" {
		t.Fatalf("SHOW MODELS rows = %v", sres.Rows)
	}
}

func TestTrainCorgiPileBeatsNoShuffleViaSQL(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='higgs', scale=0.2, order='clustered') WITH device='ram', block_size=16KB`)
	corgi := mustExec(t, s, `SELECT * FROM t TRAIN BY lr MODEL c WITH max_epoch_num=6, shuffle='corgipile', learning_rate=0.05`)
	noshuf := mustExec(t, s, `SELECT * FROM t TRAIN BY lr MODEL n WITH max_epoch_num=6, shuffle='no_shuffle', learning_rate=0.05`)
	ca, _ := strconv.ParseFloat(corgi.Rows[5][2], 64)
	na, _ := strconv.ParseFloat(noshuf.Rows[5][2], 64)
	if ca <= na {
		t.Fatalf("corgipile accuracy %.4f should beat no_shuffle %.4f on clustered data", ca, na)
	}
}

func TestTrainAutoModelName(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`)
	res := mustExec(t, s, `SELECT * FROM t TRAIN BY svm WITH max_epoch_num=1`)
	if !strings.Contains(res.Message, "model1") {
		t.Fatalf("auto name missing: %q", res.Message)
	}
}

func TestTrainSoftmaxOnMulticlass(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE c AS SYNTHETIC(workload='cifar10', scale=0.2, order='clustered') WITH device='ram', block_size=16KB`)
	res := mustExec(t, s, `SELECT * FROM c TRAIN BY softmax MODEL sm WITH max_epoch_num=5, learning_rate=0.05`)
	acc, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	if acc < 0.5 {
		t.Fatalf("softmax accuracy %.3f too low", acc)
	}
}

func TestTrainLinregOnRegression(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE r AS SYNTHETIC(workload='yearpred', scale=0.2, order='clustered') WITH device='ram', block_size=32KB`)
	res := mustExec(t, s, `SELECT * FROM r TRAIN BY linreg MODEL lin WITH max_epoch_num=8, learning_rate=0.01`)
	r2, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	if r2 < 0.8 {
		t.Fatalf("linreg R² %.3f too low", r2)
	}
}

func TestTrainUnknownModel(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`)
	if _, err := s.Exec(`SELECT * FROM t TRAIN BY transformer`); err == nil {
		t.Fatal("unknown model type should error")
	}
}

func TestCreateFromLIBSVMFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.libsvm")
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 100, Features: 20, Sparse: true, NNZ: 5, Order: data.OrderClustered, Seed: 71})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteLIBSVM(f, ds); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := NewSession()
	res := mustExec(t, s, `CREATE TABLE ext FROM '`+path+`' WITH device='ssd'`)
	if !strings.Contains(res.Message, "100 tuples") {
		t.Fatalf("message = %q", res.Message)
	}
	if _, err := s.Exec(`CREATE TABLE bad FROM '/no/such/file.libsvm'`); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestExecScript(t *testing.T) {
	s := NewSession()
	results, err := s.ExecScript(`
		CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered');
		SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=2;
		SELECT * FROM t PREDICT BY m LIMIT 3;
		SHOW MODELS;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("script produced %d results, want 4", len(results))
	}
	if len(results[2].Rows) != 3 {
		t.Fatalf("predict limit gave %d rows", len(results[2].Rows))
	}
}

func TestSessionClockAdvancesWithTraining(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05) WITH device='hdd', block_size=32KB`)
	before := s.Clock().Now()
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm WITH max_epoch_num=2`)
	if s.Clock().Now() <= before {
		t.Fatal("training should consume simulated time")
	}
}

func TestExplainTrainPlan(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05) WITH block_size=16KB`)
	res := mustExec(t, s, `EXPLAIN SELECT * FROM t TRAIN BY svm WITH shuffle='corgipile', buffer_fraction=0.1`)
	plan := ""
	for _, row := range res.Rows {
		plan += row[0] + "\n"
	}
	for _, needle := range []string{"SGD", "TupleShuffle", "BlockShuffle", "double-buffer"} {
		if !strings.Contains(plan, needle) {
			t.Fatalf("plan missing %q:\n%s", needle, plan)
		}
	}
	res = mustExec(t, s, `EXPLAIN SELECT * FROM t TRAIN BY svm WITH shuffle='no_shuffle'`)
	plan = res.Rows[1][0]
	if !strings.Contains(plan, "Scan") {
		t.Fatalf("no-shuffle plan should use Scan: %q", plan)
	}
	if _, err := s.Exec(`EXPLAIN SELECT * FROM missing TRAIN BY svm`); err == nil {
		t.Fatal("explain on missing table should error")
	}
	if _, err := s.Exec(`EXPLAIN SELECT * FROM t PREDICT BY m`); err == nil {
		t.Fatal("explain of predict should be rejected")
	}
}

func TestExplainAnalyzeTrain(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05) WITH block_size=16KB`)
	res := mustExec(t, s, `EXPLAIN ANALYZE SELECT * FROM t TRAIN BY svm WITH shuffle='corgipile', buffer_fraction=0.1, max_epoch_num=2`)
	if res.Plan == nil {
		t.Fatal("EXPLAIN ANALYZE result carries no PlanStats")
	}
	text := ""
	for _, row := range res.Rows {
		text += row[0] + "\n"
	}
	for _, needle := range []string{
		"SGD (model=svm", "TupleShuffle", "BlockShuffle", "(actual: rows=", "read=",
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("analyze plan missing %q:\n%s", needle, text)
		}
	}
	// The exclusive-time attribution invariant holds through the SQL layer.
	sum, total := res.Plan.SelfSimSum(), res.Plan.TotalSimSeconds
	if total <= 0 || math.Abs(sum-total) > 0.001*total {
		t.Fatalf("exclusive times sum to %v, epoch total %v", sum, total)
	}
	if !strings.Contains(res.Message, "EXPLAIN ANALYZE: model") {
		t.Fatalf("message = %q", res.Message)
	}
	// ANALYZE really executes: the trained model is stored and usable.
	if models := mustExec(t, s, `SHOW MODELS`); len(models.Rows) != 1 {
		t.Fatalf("models after EXPLAIN ANALYZE = %v", models.Rows)
	}

	res = mustExec(t, s, `EXPLAIN ANALYZE FORMAT JSON SELECT * FROM t TRAIN BY svm WITH shuffle='corgipile', max_epoch_num=2`)
	joined := ""
	for _, row := range res.Rows {
		joined += row[0] + "\n"
	}
	var p obs.PlanStats
	if err := json.Unmarshal([]byte(joined), &p); err != nil {
		t.Fatalf("FORMAT JSON output not valid JSON: %v\n%s", err, joined)
	}
	if p.Name != "SGD" || p.Rows == 0 {
		t.Fatalf("decoded plan root %+v", p)
	}
}

func TestAnalyzeTable(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE clus AS SYNTHETIC(workload='susy', scale=0.2, order='clustered') WITH block_size=8KB`)
	mustExec(t, s, `CREATE TABLE shuf AS SYNTHETIC(workload='susy', scale=0.2, order='shuffled') WITH block_size=8KB`)
	hd := func(table string) float64 {
		res := mustExec(t, s, `ANALYZE TABLE `+table+` WITH model='lr'`)
		for _, row := range res.Rows {
			if row[0] == "cluster factor h_D" {
				var v float64
				if _, err := fmt.Sscanf(row[1], "%f", &v); err != nil {
					t.Fatalf("bad h_D cell %q", row[1])
				}
				return v
			}
		}
		t.Fatal("h_D row missing")
		return 0
	}
	clustered, shuffled := hd("clus"), hd("shuf")
	// susy-like data is noisy (within-class variance dominates), so the
	// clustered h_D is moderate — but it must still clearly exceed the
	// shuffled table's ~1.
	if clustered < 2*shuffled {
		t.Fatalf("clustered h_D (%.2f) should exceed shuffled (%.2f)", clustered, shuffled)
	}
	res := mustExec(t, s, `ANALYZE TABLE clus`)
	if !strings.Contains(res.Message, "buffer_fraction") {
		t.Fatalf("analyze message %q", res.Message)
	}
	if _, err := s.Exec(`ANALYZE TABLE missing`); err == nil {
		t.Fatal("analyze on missing table should error")
	}
}

func TestPredictWithWhere(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.05, order='clustered')`)
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=2`)
	all := mustExec(t, s, `SELECT * FROM t PREDICT BY m`)
	neg := mustExec(t, s, `SELECT * FROM t WHERE label = -1 PREDICT BY m`)
	if len(neg.Rows) >= len(all.Rows) || len(neg.Rows) == 0 {
		t.Fatalf("WHERE filter rows = %d of %d", len(neg.Rows), len(all.Rows))
	}
	for _, row := range neg.Rows {
		if row[1] != "-1" {
			t.Fatalf("filtered row has label %q", row[1])
		}
	}
	few := mustExec(t, s, `SELECT * FROM t WHERE id < 10 PREDICT BY m`)
	if len(few.Rows) != 10 {
		t.Fatalf("id < 10 returned %d rows", len(few.Rows))
	}
}

func TestTrainWithWhere(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.1, order='clustered')`)
	// Train on half the data via an id predicate; epoch tuple counts halve.
	res := mustExec(t, s, `SELECT * FROM t WHERE id < 500 TRAIN BY svm MODEL half WITH max_epoch_num=2`)
	n, _ := strconv.Atoi(res.Rows[0][4])
	if n != 500 {
		t.Fatalf("filtered epoch consumed %d tuples, want 500", n)
	}
}

func TestSaveAndLoadModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.1, order='clustered')`)
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=3`)
	orig := mustExec(t, s, `SELECT * FROM t PREDICT BY m`)
	mustExec(t, s, `SAVE MODEL m TO '`+path+`'`)

	// A fresh session restores the model and predicts identically.
	s2 := NewSession()
	mustExec(t, s2, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.1, order='clustered')`)
	mustExec(t, s2, `LOAD MODEL m2 FROM '`+path+`'`)
	restored := mustExec(t, s2, `SELECT * FROM t PREDICT BY m2`)
	if orig.Message != strings.Replace(restored.Message, "m2", "m", 1) && orig.Message != restored.Message {
		// Accuracy strings must match exactly: same weights, same data.
		if orig.Message[len(orig.Message)-6:] != restored.Message[len(restored.Message)-6:] {
			t.Fatalf("restored model predicts differently: %q vs %q", orig.Message, restored.Message)
		}
	}

	// Error paths.
	if _, err := s.Exec(`SAVE MODEL missing TO '` + path + `'`); err == nil {
		t.Fatal("saving a missing model should error")
	}
	if _, err := s2.Exec(`LOAD MODEL m2 FROM '` + path + `'`); err == nil {
		t.Fatal("loading over an existing model should error")
	}
	if _, err := s2.Exec(`LOAD MODEL m3 FROM '/no/such/file.json'`); err == nil {
		t.Fatal("loading a missing file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"format":99}`), 0o644)
	if _, err := s2.Exec(`LOAD MODEL m4 FROM '` + bad + `'`); err == nil {
		t.Fatal("unsupported format should error")
	}
	trunc := filepath.Join(dir, "trunc.json")
	os.WriteFile(trunc, []byte(`{"format":1,"kind":"svm","features":18,"classes":2,"weights":[1]}`), 0o644)
	if _, err := s2.Exec(`LOAD MODEL m5 FROM '` + trunc + `'`); err == nil {
		t.Fatal("wrong weight count should error")
	}
}

func TestSaveLoadMLPPreservesHidden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mlp.json")
	s := NewSession()
	mustExec(t, s, `CREATE TABLE c AS SYNTHETIC(workload='cifar10', scale=0.1, order='shuffled')`)
	mustExec(t, s, `SELECT * FROM c TRAIN BY mlp MODEL deep WITH max_epoch_num=2, learning_rate=0.02, batch_size=16`)
	mustExec(t, s, `SAVE MODEL deep TO '`+path+`'`)
	s2 := NewSession()
	mustExec(t, s2, `LOAD MODEL deep2 FROM '`+path+`'`)
	m, _ := s2.Model("deep2")
	if m.Kind != "mlp" || len(m.W) == 0 {
		t.Fatalf("restored MLP malformed: %+v", m.Kind)
	}
}

func TestTrainFactorizationMachineViaSQL(t *testing.T) {
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.1, order='clustered')`)
	res := mustExec(t, s, `SELECT * FROM t TRAIN BY fm MODEL f WITH max_epoch_num=4, learning_rate=0.02`)
	acc, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	if acc < 0.6 {
		t.Fatalf("FM accuracy %.3f too low", acc)
	}
}

func TestPredicateFuncAllOperators(t *testing.T) {
	tp := &data.Tuple{ID: 10, Label: -1}
	cases := []struct {
		col, op string
		val     float64
		want    bool
	}{
		{"id", "=", 10, true}, {"id", "=", 9, false},
		{"id", "!=", 9, true}, {"id", "!=", 10, false},
		{"id", "<", 11, true}, {"id", "<", 10, false},
		{"id", "<=", 10, true}, {"id", "<=", 9, false},
		{"id", ">", 9, true}, {"id", ">", 10, false},
		{"id", ">=", 10, true}, {"id", ">=", 11, false},
		{"label", "=", -1, true}, {"label", ">", 0, false},
	}
	for _, c := range cases {
		f := CompilePredicate(&sqlparse.Predicate{Column: c.col, Op: c.op, Value: c.val})
		if got := f(tp); got != c.want {
			t.Errorf("%s %s %v = %v, want %v", c.col, c.op, c.val, got, c.want)
		}
	}
	if CompilePredicate(nil) != nil {
		t.Error("nil predicate should compile to nil")
	}
	// Unknown operator falls through to pass-all.
	if f := CompilePredicate(&sqlparse.Predicate{Column: "id", Op: "~", Value: 1}); !f(tp) {
		t.Error("unknown op should pass everything")
	}
}

func TestTrainProcsParamDeterministic(t *testing.T) {
	// The procs WITH-param selects the mini-batch worker count; results
	// must be bit-for-bit identical at every setting (see ml.BatchEngine).
	run := func(procs int) [][]string {
		s := NewSession()
		mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='higgs', scale=0.05, order='clustered')`)
		res := mustExec(t, s, fmt.Sprintf(
			`SELECT * FROM t TRAIN BY svm MODEL m WITH max_epoch_num=3, batch_size=32, procs=%d`, procs))
		return res.Rows
	}
	base := run(1)
	for _, procs := range []int{2, 4} {
		rows := run(procs)
		if len(rows) != len(base) {
			t.Fatalf("procs=%d produced %d rows, want %d", procs, len(rows), len(base))
		}
		for i := range rows {
			for j := range rows[i] {
				if rows[i][j] != base[i][j] {
					t.Fatalf("procs=%d row %d col %d = %q, procs=1 gave %q",
						procs, i, j, rows[i][j], base[i][j])
				}
			}
		}
	}
}
