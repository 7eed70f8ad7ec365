package executor

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

func memSource(n, perBlock int, order data.Order) *shuffle.MemSource {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: n, Features: 6, Separation: 1.5, Noise: 1.0, Order: order, Seed: 61})
	return shuffle.NewMemSource(ds, perBlock)
}

func drainOp(t *testing.T, op Operator) []int64 {
	t.Helper()
	var ids []int64
	for {
		tp, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ids
		}
		ids = append(ids, tp.ID)
	}
}

func assertPerm(t *testing.T, ids []int64, n int) {
	t.Helper()
	if len(ids) != n {
		t.Fatalf("emitted %d tuples, want %d", len(ids), n)
	}
	seen := make([]bool, n)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %d twice", id)
		}
		seen[id] = true
	}
}

// TestTupleShuffleLeavesCachePure: the CorgiPile plan shuffles references
// to the table's shared decoded tuples, never the tuples themselves, on
// both the synchronous and the async fill path.
func TestTupleShuffleLeavesCachePure(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 600, Features: 6, Order: data.OrderClustered, Seed: 62})
	tab, err := storage.Build(iosim.NewDevice(iosim.SSD, iosim.NewClock()), ds,
		storage.Options{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, async := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		op := NewTupleShuffle(NewBlockShuffle(shuffle.TableSource(tab), rng), 100, rng)
		op.Async = async
		if err := op.Init(); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			assertPerm(t, drainOp(t, op), len(ds.Tuples))
			if err := op.ReScan(); err != nil {
				t.Fatal(err)
			}
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		// Each block must still read as a fresh decode of its stored bytes.
		for i := 0; i < tab.NumBlocks(); i++ {
			got, err := tab.ReadBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := tab.RawBlockAt(i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := storage.DecodeRawTuples(rb.Raw, rb.Tuples)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("async=%v: block %d changed under the shuffle", async, i)
			}
		}
	}
}

func TestScanOpSequential(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	op := NewScan(src)
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	ids := drainOp(t, op)
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("scan out of order at %d: %d", i, id)
		}
	}
	if err := op.ReScan(); err != nil {
		t.Fatal(err)
	}
	if ids2 := drainOp(t, op); len(ids2) != 100 {
		t.Fatal("rescan did not reproduce the scan")
	}
}

func TestBlockShuffleOpPermutesBlocks(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	op := NewBlockShuffle(src, rand.New(rand.NewSource(1)))
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	ids := drainOp(t, op)
	assertPerm(t, ids, 100)
	// Within-block order preserved.
	for b := 0; b < 10; b++ {
		run := ids[b*10 : (b+1)*10]
		for i := 1; i < 10; i++ {
			if run[i] != run[i-1]+1 {
				t.Fatalf("block shuffled within-block order: %v", run)
			}
		}
	}
	// ReScan produces a different block order.
	if err := op.ReScan(); err != nil {
		t.Fatal(err)
	}
	ids2 := drainOp(t, op)
	diff := false
	for i := range ids {
		if ids[i] != ids2[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("ReScan did not reshuffle blocks")
	}
}

func TestTupleShuffleOpShufflesAndCovers(t *testing.T) {
	src := memSource(200, 10, data.OrderClustered)
	rng := rand.New(rand.NewSource(2))
	op := NewTupleShuffle(NewBlockShuffle(src, rng), 50, rng)
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	ids := drainOp(t, op)
	assertPerm(t, ids, 200)
	contiguous := 0
	for i := 1; i < 50; i++ {
		if ids[i] == ids[i-1]+1 {
			contiguous++
		}
	}
	if contiguous > 25 {
		t.Fatalf("buffer not shuffled: %d contiguous pairs", contiguous)
	}
}

func TestTupleShuffleReScanResets(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	rng := rand.New(rand.NewSource(3))
	op := NewTupleShuffle(NewBlockShuffle(src, rng), 30, rng)
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	_ = drainOp(t, op)
	if err := op.ReScan(); err != nil {
		t.Fatal(err)
	}
	ids := drainOp(t, op)
	assertPerm(t, ids, 100)
}

func TestSGDOpTrainsViaReScan(t *testing.T) {
	src := memSource(2000, 50, data.OrderClustered)
	op, err := BuildSGDPlan(src, PlanConfig{
		Shuffle: shuffle.KindCorgiPile,
		Seed:    4,
		SGD: SGDConfig{
			Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: 6,
			Epochs: 6, BatchSize: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for i, r := range rows {
		if r.Epoch != i+1 || r.Tuples != 2000 {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
	}
	// The hinge loss at w=0 is exactly 1 for every tuple; after six epochs
	// the streaming loss must sit well below that.
	if rows[5].Loss >= 0.9 {
		t.Fatalf("final streaming loss %v, want < 0.9", rows[5].Loss)
	}
}

func TestSGDPlanBeatsNoShufflePlanOnClusteredData(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 3000, Features: 8, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 62})
	run := func(kind shuffle.Kind) float64 {
		src := shuffle.NewMemSource(ds, 50)
		op, err := BuildSGDPlan(src, PlanConfig{
			Shuffle: kind, Seed: 5,
			SGD: SGDConfig{
				Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: 8,
				Epochs: 6, Eval: ds,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := op.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows[len(rows)-1].Accuracy
	}
	corgi := run(shuffle.KindCorgiPile)
	noShuf := run(shuffle.KindNoShuffle)
	if corgi < noShuf+0.1 {
		t.Fatalf("corgipile plan %.3f should clearly beat no-shuffle plan %.3f", corgi, noShuf)
	}
}

func TestStrategyOpFallbackKinds(t *testing.T) {
	for _, kind := range []shuffle.Kind{shuffle.KindShuffleOnce, shuffle.KindSlidingWindow, shuffle.KindMRS, shuffle.KindEpochShuffle} {
		src := memSource(300, 20, data.OrderClustered)
		op, err := BuildSGDPlan(src, PlanConfig{
			Shuffle: kind, Seed: 6,
			SGD: SGDConfig{Model: ml.LogisticRegression{}, Opt: ml.NewSGD(0.05), Features: 6, Epochs: 2},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rows, err := op.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(rows) != 2 || rows[0].Tuples < 300 {
			t.Fatalf("%s: rows %+v", kind, rows)
		}
	}
}

func TestSGDValidation(t *testing.T) {
	if _, err := NewSGD(NewScan(memSource(10, 5, data.OrderShuffled)), SGDConfig{}); err == nil {
		t.Fatal("SGD without model must error")
	}
}

func TestPredictOp(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 500, Features: 6, Separation: 3, Order: data.OrderShuffled, Seed: 63})
	src := shuffle.NewMemSource(ds, 50)
	sgd, err := BuildSGDPlan(src, PlanConfig{
		Shuffle: shuffle.KindCorgiPile, Seed: 7,
		SGD: SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.05), Features: 6, Epochs: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sgd.Run(); err != nil {
		t.Fatal(err)
	}
	pred := NewPredict(NewScan(src), sgd.Model(), sgd.W)
	if err := pred.Init(); err != nil {
		t.Fatal(err)
	}
	n, correct := 0, 0
	for {
		p, ok, err := pred.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
		if (p.Pred >= 0) == (p.Label >= 0) {
			correct++
		}
	}
	if n != 500 {
		t.Fatalf("predicted %d rows, want 500", n)
	}
	if float64(correct)/float64(n) < 0.9 {
		t.Fatalf("prediction accuracy %.3f < 0.9", float64(correct)/float64(n))
	}
}

func TestDoubleBufferPlanFasterOnDisk(t *testing.T) {
	ds := data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 20000, Features: 64, Order: data.OrderClustered, Seed: 64})
	build := func(double bool) (time.Duration, int) {
		clock := iosim.NewClock()
		dev := iosim.NewDevice(iosim.HDD, clock)
		tab, err := storage.Build(dev, ds, storage.Options{BlockSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		src := shuffle.TableSource(tab)
		op, err := BuildSGDPlan(src, PlanConfig{
			Shuffle: shuffle.KindCorgiPile, Seed: 8, DoubleBuffer: double,
			SGD: SGDConfig{
				Model: ml.SVM{}, Opt: ml.NewSGD(0.01), Features: 64,
				Epochs: 2, Clock: clock,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := op.Run()
		if err != nil {
			t.Fatal(err)
		}
		return clock.Now(), rows[len(rows)-1].Tuples
	}
	serial, n1 := build(false)
	piped, n2 := build(true)
	if n1 != 20000 || n2 != 20000 {
		t.Fatalf("tuple counts wrong: %d/%d", n1, n2)
	}
	if piped >= serial {
		t.Fatalf("double-buffered plan (%v) should be faster than single (%v)", piped, serial)
	}
}

func TestFilterOpDropsNonMatching(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	op := NewFilter(NewScan(src), func(tp *data.Tuple) bool { return tp.Label > 0 })
	if err := op.Init(); err != nil {
		t.Fatal(err)
	}
	ids := drainOp(t, op)
	if len(ids) != 50 {
		t.Fatalf("filter passed %d tuples, want 50", len(ids))
	}
	for _, id := range ids {
		if id < 50 { // clustered: first half negative
			t.Fatalf("negative tuple %d leaked through", id)
		}
	}
	if err := op.ReScan(); err != nil {
		t.Fatal(err)
	}
	if again := drainOp(t, op); len(again) != 50 {
		t.Fatal("filter rescan broken")
	}
}

func TestDescribePlanShapes(t *testing.T) {
	src := memSource(100, 10, data.OrderClustered)
	base := PlanConfig{SGD: SGDConfig{Model: ml.SVM{}, Opt: ml.NewSGD(0.1), Epochs: 3}}

	corgi := base
	corgi.Shuffle = shuffle.KindCorgiPile
	corgi.DoubleBuffer = true
	plan := DescribePlan(src, corgi)
	for _, needle := range []string{"SGD (model=svm optimizer=sgd epochs=3 batch=1)", "TupleShuffle", "BlockShuffle", "double-buffer"} {
		if !strings.Contains(plan, needle) {
			t.Fatalf("corgipile plan missing %q:\n%s", needle, plan)
		}
	}

	ns := base
	ns.Shuffle = shuffle.KindNoShuffle
	if !strings.Contains(DescribePlan(src, ns), "Scan (blocks=10, sequential)") {
		t.Fatalf("no-shuffle plan wrong:\n%s", DescribePlan(src, ns))
	}

	bo := base
	bo.Shuffle = shuffle.KindBlockOnly
	if !strings.Contains(DescribePlan(src, bo), "BlockShuffle (blocks=10") {
		t.Fatal("block-only plan wrong")
	}

	mrs := base
	mrs.Shuffle = shuffle.KindMRS
	if !strings.Contains(DescribePlan(src, mrs), "Strategy[mrs]") {
		t.Fatal("fallback strategy plan wrong")
	}

	empty := DescribePlan(src, PlanConfig{Shuffle: shuffle.KindCorgiPile})
	if !strings.Contains(empty, "model=?") {
		t.Fatal("nil-model plan should render placeholders")
	}
}
