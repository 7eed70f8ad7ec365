package main

import (
	"fmt"
	"path/filepath"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// The traced run. It first alternates short untraced and traced runs of
// the invoked workload and reports the median ratio of their end-to-end
// latency as the tracing overhead. It then climbs the layer
// ladder on the same seeded inputs: each rung times one public call of one
// layer from outside, and each rung adds one layer to the rung below, so a
// layer's self time is its rung minus the rung below. Every timed call is
// recorded as a span.

// rungStat is one rung's median over the ladder's repetitions.
type rungStat struct {
	nsPerTuple     float64
	allocsPerTuple float64
	wall           time.Duration
}

// ladder holds the inputs every rung shares.
type ladder struct {
	cfg *config
	tr  *tracer
	o   *outcome
}

// rungSpec is one timed call; fn returns how many tuples it processed.
type rungSpec struct {
	name string
	fn   func() (int, error)
}

// rungs times every spec cfg.sz.ladderReps times and keeps each one's
// medians. The repetitions interleave the specs, so host drift during the
// ladder reaches the rungs a self time subtracts alike. Each call is one
// span named after its spec.
func (l *ladder) rungs(specs ...rungSpec) ([]rungStat, error) {
	ns := make([][]float64, len(specs))
	allocs := make([][]float64, len(specs))
	walls := make([][]float64, len(specs))
	for i := 0; i < l.cfg.sz.ladderReps; i++ {
		for k, spec := range specs {
			settle()
			sp := l.tr.begin(spec.name)
			a0 := allocCount()
			t0 := time.Now()
			n, err := spec.fn()
			wall := time.Since(t0)
			a1 := allocCount()
			sp.end()
			l.o.op(err)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			if n <= 0 {
				return nil, fmt.Errorf("%s processed no tuples", spec.name)
			}
			ns[k] = append(ns[k], float64(wall.Nanoseconds())/float64(n))
			allocs[k] = append(allocs[k], float64(a1-a0)/float64(n))
			walls[k] = append(walls[k], float64(wall))
		}
	}
	out := make([]rungStat, len(specs))
	for k := range specs {
		out[k] = rungStat{nsPerTuple: median(ns[k]), allocsPerTuple: median(allocs[k]), wall: time.Duration(median(walls[k]))}
	}
	return out, nil
}

// rung times one call on its own.
func (l *ladder) rung(name string, fn func() (int, error)) (rungStat, error) {
	st, err := l.rungs(rungSpec{name, fn})
	if err != nil {
		return rungStat{}, err
	}
	return st[0], nil
}

func runTraced(cfg *config, tr *tracer, o *outcome) error {
	// Short untraced and traced runs alternate, so host drift over the
	// pairs reaches both alike; the ratio is the median of the pairs'.
	var ratios []float64
	for i := 0; i < cfg.sz.ladderReps; i++ {
		untraced, err := overheadProbe(cfg, nil, o)
		if err != nil {
			return err
		}
		traced, err := overheadProbe(cfg, tr, o)
		if err != nil {
			return err
		}
		ratios = append(ratios, traced/untraced)
	}
	o.set("bench.trace_overhead_ratio", median(ratios))

	l := &ladder{cfg: cfg, tr: tr, o: o}
	for _, step := range []func() error{l.sqlLayers, l.batchLayers, l.parseLayer, l.insertLayer, l.serveLayer} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// overheadProbe runs the invoked workload for a short window and returns
// its median operation latency. Its checks and counts join o.
func overheadProbe(cfg *config, tr *tracer, o *outcome) (float64, error) {
	sub := *cfg
	sub.window = cfg.sz.overheadWindow
	sub.sz.setupReps = 1
	so := newOutcome()
	if err := workloads[cfg.workload](&sub, tr, so); err != nil {
		return 0, err
	}
	o.ops(so.attempted, so.failed)
	o.bad = append(o.bad, so.bad...)
	return so.metrics["op_p50_ms"].Value, nil
}

// sqlLayers climbs from the gradient kernel to SQL TRAIN over the
// sql-train table: kernel, shuffle iterators, block reads, shuffle over
// the table plus trainer, executor plan, and Session.Exec.
func (l *ladder) sqlLayers() error {
	cfg, o := l.cfg, l.o
	path, err := writeHiggsFile(cfg)
	if err != nil {
		return err
	}
	s, err := loadSQLTable(path)
	if err != nil {
		return err
	}
	entry, _ := s.Table("t")
	tab := entry.Table
	decoded, err := tab.DecodeAll()
	if err != nil {
		return err
	}
	// The table's own tuples, sparse as LIBSVM loading stores them, feed
	// every rung, so the rungs differ only in the layers they add.
	ds := &data.Dataset{Name: "t", Task: tab.Task(), Features: tab.Features(), Classes: tab.Classes(), Tuples: decoded}
	perBlock := tab.NumTuples() / tab.NumBlocks()
	epochs := cfg.sz.sqlEpochs
	model, _ := ml.New("lr", 2)
	dim := model.Dim(ds.Features)

	kernel, err := l.rung("ml.Trainer.RunEpoch", func() (int, error) {
		w := make([]float64, dim)
		return ml.NewTrainer(model, ml.NewSGD(0.01), 1).RunEpoch(w, ml.SliceStream(ds)).Tuples, nil
	})
	if err != nil {
		return err
	}
	o.set("ml.kernel_ns_per_tuple", kernel.nsPerTuple)
	o.set("ml.kernel_allocs_per_tuple", kernel.allocsPerTuple)

	trained := make([]float64, dim)
	ml.NewTrainer(model, ml.NewSGD(0.01), 1).RunEpoch(trained, ml.SliceStream(ds))
	eval, err := l.rung("ml.Accuracy", func() (int, error) {
		ml.Accuracy(model, trained, ds)
		return ds.Len(), nil
	})
	if err != nil {
		return err
	}
	o.set("ml.eval_ns_per_tuple", eval.nsPerTuple)

	memStrategy := func(kind shuffle.Kind) (shuffle.Strategy, error) {
		return shuffle.New(kind, shuffle.NewMemSource(ds, perBlock), shuffle.Options{BufferFraction: 0.1, Seed: trainSeed})
	}
	drain := func(kind shuffle.Kind) func() (int, error) {
		return func() (int, error) {
			st, err := memStrategy(kind)
			if err != nil {
				return 0, err
			}
			it, err := st.StartEpoch(0)
			if err != nil {
				return 0, err
			}
			n := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				n++
			}
			return n, it.Err()
		}
	}
	st, err := l.rungs(
		rungSpec{"shuffle.Iterator.Next(corgipile)", drain(shuffle.KindCorgiPile)},
		rungSpec{"shuffle.Iterator.Next(no_shuffle)", drain(shuffle.KindNoShuffle)})
	if err != nil {
		return err
	}
	corgi, plain := st[0], st[1]
	o.set("shuffle.corgipile_ns_per_tuple", corgi.nsPerTuple)
	o.set("shuffle.corgipile_allocs_per_tuple", corgi.allocsPerTuple)
	o.set("shuffle.noshuffle_ns_per_tuple", plain.nsPerTuple)

	trainOver := func(kind shuffle.Kind) func() (int, error) {
		return func() (int, error) {
			st, err := memStrategy(kind)
			if err != nil {
				return 0, err
			}
			it, err := st.StartEpoch(0)
			if err != nil {
				return 0, err
			}
			n := ml.NewTrainer(model, ml.NewSGD(0.01), 1).RunEpoch(make([]float64, dim), it.Next).Tuples
			return n, it.Err()
		}
	}
	st, err = l.rungs(
		rungSpec{"ml.Trainer.RunEpoch(corgipile)", trainOver(shuffle.KindCorgiPile)},
		rungSpec{"ml.Trainer.RunEpoch(no_shuffle)", trainOver(shuffle.KindNoShuffle)})
	if err != nil {
		return err
	}
	o.set("shuffle.corgi_over_noshuffle", st[0].nsPerTuple/st[1].nsPerTuple)

	read, err := l.rung("storage.Table.ReadBlock", func() (int, error) {
		n := 0
		for i := 0; i < tab.NumBlocks(); i++ {
			ts, err := tab.ReadBlock(i)
			if err != nil {
				return 0, err
			}
			n += len(ts)
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	o.set("storage.read_block_ns_per_tuple", read.nsPerTuple)
	o.set("storage.read_block_allocs_per_tuple", read.allocsPerTuple)
	decode, err := l.rung("storage.Table.DecodeAll", func() (int, error) {
		ts, err := tab.DecodeAll()
		return len(ts), err
	})
	if err != nil {
		return err
	}
	o.set("storage.decode_all_ms", ms(decode.wall))

	// The rung below the executor: the shuffle over the table feeding the
	// trainer, plus the per-epoch evaluation the SQL path also runs.
	below := func() (int, error) {
		st, err := shuffle.New(shuffle.KindCorgiPile, shuffle.TableSource(tab),
			shuffle.Options{BufferFraction: 0.1, Seed: trainSeed, DoubleBuffer: true})
		if err != nil {
			return 0, err
		}
		trainer := ml.NewTrainer(model, ml.NewSGD(0.01), 1)
		w := make([]float64, dim)
		n := 0
		for e := 0; e < epochs; e++ {
			it, err := st.StartEpoch(e)
			if err != nil {
				return 0, err
			}
			n += trainer.RunEpoch(w, it.Next).Tuples
			if err := it.Err(); err != nil {
				return 0, err
			}
			ml.Accuracy(model, w, ds)
		}
		return n, nil
	}
	plan := func() (int, error) {
		op, err := executor.BuildSGDPlan(shuffle.TableSource(tab), executor.PlanConfig{
			Shuffle: shuffle.KindCorgiPile, BufferFraction: 0.1, DoubleBuffer: true, Seed: trainSeed,
			SGD: executor.SGDConfig{
				Model: model, Opt: ml.NewSGD(0.01), Features: ds.Features, Epochs: epochs,
				BatchSize: 1, Procs: 1, Clock: s.Clock(), Eval: ds,
			},
		})
		if err != nil {
			return 0, err
		}
		res, err := op.RunResult()
		if err != nil {
			return 0, err
		}
		n := 0
		for _, p := range res.Points {
			n += p.Tuples
		}
		return n, nil
	}
	stmt := sqlTrainStmt(epochs)
	st, err = l.rungs(
		rungSpec{"shuffle+ml over storage.Table", below},
		rungSpec{"executor.SGDOp.RunResult", plan},
		rungSpec{"db.Session.Exec(TRAIN)", func() (int, error) { return sqlTrainTuples(s, stmt) }})
	if err != nil {
		return err
	}
	o.set("executor.plan_ns_per_tuple", st[1].nsPerTuple)
	o.set("executor.self_ns_per_tuple", st[1].nsPerTuple-st[0].nsPerTuple)
	o.set("db.train_ns_per_tuple", st[2].nsPerTuple)
	o.set("db.self_ns_per_tuple", st[2].nsPerTuple-st[1].nsPerTuple)

	if err := l.deviceCounts(path, stmt, epochs); err != nil {
		return err
	}
	return l.planeOverheads(path, stmt, s)
}

// sqlTrainTuples runs one TRAIN statement and returns the tuples it
// consumed over all epochs.
func sqlTrainTuples(s *db.Session, stmt string) (int, error) {
	c, err := execTrain(s, stmt, span{})
	if err != nil {
		return 0, err
	}
	return c.total(), nil
}

// deviceCounts runs the sql-train TRAIN once on a freshly loaded table and
// reports the simulated device's exact traffic and clock advance.
func (l *ladder) deviceCounts(path, stmt string, epochs int) error {
	s, err := loadSQLTable(path)
	if err != nil {
		return err
	}
	entry, _ := s.Table("t")
	dev := entry.Table.Device()
	before, c0 := dev.Stats(), s.Clock().Now()
	sp := l.tr.begin("db.Session.Exec(TRAIN) on a cold device")
	_, err = sqlTrainTuples(s, stmt)
	sp.end()
	l.o.op(err)
	if err != nil {
		return err
	}
	after, c1 := dev.Stats(), s.Clock().Now()
	read := after.BytesRead - before.BytesRead
	l.o.set("iosim.train_sim_s", (c1 - c0).Seconds())
	l.o.set("iosim.bytes_read_per_epoch", float64(read)/float64(epochs))
	l.o.set("iosim.seeks_per_epoch", float64(after.Seeks-before.Seeks)/float64(epochs))
	l.o.set("iosim.cache_hit_ratio", float64(after.CacheHitBytes-before.CacheHitBytes)/float64(read))
	return nil
}

// planeOverheads times the sql-train TRAIN with one observability plane
// attached against the same TRAIN on the bare session, alternating the
// two so drift affects both alike.
func (l *ladder) planeOverheads(path, stmt string, bare *db.Session) error {
	planes := []struct {
		metric string
		attach func(*db.Session) func()
	}{
		{"obs.metrics_overhead_ratio", func(s *db.Session) func() {
			s.WithMetrics(obs.New())
			return func() {}
		}},
		{"obs.events_overhead_ratio", func(s *db.Session) func() {
			s.WithEvents(obs.NewEventLog(0))
			return func() {}
		}},
		// A history samples a registry; like the server, attach one to the
		// session and start the sampler at its default interval.
		{"obs.history_overhead_ratio", func(s *db.Session) func() {
			reg := obs.New()
			h := obs.NewHistory(obs.HistoryConfig{})
			s.WithMetrics(reg).WithHistory(h)
			h.Start(reg)
			return h.Stop
		}},
	}
	for _, p := range planes {
		s, err := loadSQLTable(path)
		if err != nil {
			return err
		}
		stop := p.attach(s)
		var ratios []float64
		for i := 0; i < l.cfg.sz.ladderReps; i++ {
			var walls [2]time.Duration
			for k, sess := range []*db.Session{bare, s} {
				settle()
				sp := l.tr.begin("db.Session.Exec(TRAIN)")
				c, err := execTrain(sess, stmt, sp)
				l.o.op(err)
				if err != nil {
					stop()
					return err
				}
				walls[k] = c.wall
			}
			ratios = append(ratios, float64(walls[1])/float64(walls[0]))
		}
		stop()
		l.o.set(p.metric, median(ratios))
	}
	return nil
}

// batchLayers climbs the library path on the batch-train dataset: the
// mini-batch kernel at one and two workers, the shuffle plus trainer, and
// corgipile.Train; then it runs the library path's output checks.
func (l *ladder) batchLayers() error {
	cfg, o := l.cfg, l.o
	ds := epsilonLike(cfg.sz.batchTuples, cfg.sz.batchFeatures, cfg.seed)
	lr, _ := ml.New("lr", 2)
	dim := lr.Dim(ds.Features)
	batchEpoch := func(procs int) func() (int, error) {
		return func() (int, error) {
			tr := ml.NewTrainer(lr, ml.NewSGD(0.5), 64)
			tr.Procs = procs
			defer tr.Close()
			return tr.RunEpoch(make([]float64, dim), ml.SliceStream(ds)).Tuples, nil
		}
	}
	st, err := l.rungs(
		rungSpec{"ml.Trainer.RunEpoch(batch=64,procs=1)", batchEpoch(1)},
		rungSpec{"ml.Trainer.RunEpoch(batch=64,procs=2)", batchEpoch(2)})
	if err != nil {
		return err
	}
	o.set("ml.batch_ns_per_tuple", st[0].nsPerTuple)
	o.set("ml.batch_procs2_speedup", st[0].nsPerTuple/st[1].nsPerTuple)

	// corgipile.Train cuts an in-memory dataset into 256 blocks.
	perBlock := ds.Len() / 256
	below := func() (int, error) {
		st, err := shuffle.New(shuffle.KindCorgiPile, shuffle.NewMemSource(ds, perBlock),
			shuffle.Options{BufferFraction: 0.1, Seed: trainSeed})
		if err != nil {
			return 0, err
		}
		it, err := st.StartEpoch(0)
		if err != nil {
			return 0, err
		}
		tr := ml.NewTrainer(lr, ml.NewSGD(0.5), 64)
		tr.Procs = 2
		defer tr.Close()
		w := make([]float64, dim)
		n := tr.RunEpoch(w, it.Next).Tuples
		ml.Accuracy(lr, w, ds)
		return n, it.Err()
	}
	run := func() (int, error) {
		c, err := trainLibrary(ds, batchConfig(1, 2), span{})
		return c.total(), err
	}
	st, err = l.rungs(rungSpec{"shuffle+ml over MemSource", below}, rungSpec{"corgipile.Train", run})
	if err != nil {
		return err
	}
	o.set("core.run_ns_per_tuple", st[1].nsPerTuple)
	o.set("core.self_ns_per_tuple", st[1].nsPerTuple-st[0].nsPerTuple)

	// The library path's output checks: a full call at two workers and one
	// at a single worker each cover every tuple every epoch and clear the
	// accuracy floor, and their loss traces are bit-identical, which the
	// program documents as invariant in Procs.
	var calls []trainCall
	for _, procs := range []int{2, 1} {
		c, err := trainLibrary(ds, batchConfig(cfg.sz.batchEpochs, procs), l.tr.begin("corgipile.Train"))
		o.op(err)
		if err != nil {
			return fmt.Errorf("Train procs=%d: %w", procs, err)
		}
		calls = append(calls, c)
	}
	o.check(checkTrainCalls("batch-train", calls, cfg.sz.batchEpochs, ds.Len()))
	return nil
}

// parseLayer times sqlparse.Parse on the workloads' own statements.
func (l *ladder) parseLayer() error {
	const perRep = 200
	ins, _ := insertBatches("s", 1, l.cfg.sz.insertRows, l.cfg.seed)
	for _, q := range []struct{ metric, sql string }{
		{"sqlparse.parse_train_us", sqlTrainStmt(l.cfg.sz.sqlEpochs)},
		{"sqlparse.parse_insert_us", ins[0]},
		{"sqlparse.parse_predict_us", predictSQL},
	} {
		st, err := l.rung("sqlparse.Parse", func() (int, error) {
			for i := 0; i < perRep; i++ {
				if _, err := sqlparse.Parse(q.sql); err != nil {
					return 0, err
				}
			}
			return perRep, nil
		})
		if err != nil {
			return err
		}
		l.o.set(q.metric, st.nsPerTuple/1e3)
	}
	return nil
}

// insertLayer times the storage append and the durable in-process INSERT
// with its WAL traffic.
func (l *ladder) insertLayer() error {
	cfg, o := l.cfg, l.o
	const batches = 40
	rows := cfg.sz.insertRows
	dense := susyRows(rngFor(cfg.seed, streamInserts), batches*rows, false)
	app, err := l.rung("storage.Table.AppendTuples", func() (int, error) {
		dev := iosim.NewDevice(iosim.SSD, iosim.NewClock())
		t := storage.NewEmpty(dev, "a", data.TaskBinary, dense.Features, 2, storage.Options{BlockSize: 64 << 10})
		for k := 0; k < batches; k++ {
			if _, err := t.AppendTuples(dense.Tuples[k*rows : (k+1)*rows]); err != nil {
				return 0, err
			}
		}
		return t.NumTuples(), nil
	})
	if err != nil {
		return err
	}
	o.set("storage.append_us_per_tuple", app.nsPerTuple/1e3)

	path, err := writeSusyFile(cfg)
	if err != nil {
		return err
	}
	reg := obs.New()
	s := db.NewSession().WithMetrics(reg)
	if _, err := s.OpenWAL(filepath.Join(cfg.dir, "wal-insert")); err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Exec(fmt.Sprintf("CREATE TABLE s FROM '%s' WITH device='ssd', block_size=64KB", path)); err != nil {
		return err
	}
	stmts, user := insertBatches("s", batches, rows, cfg.seed)
	size0, syncs0 := s.WALSize(), reg.Counter(obs.WALSyncs)
	var lat []float64
	userBytes := 0
	for k, q := range stmts {
		sp := l.tr.begin("db.Session.Exec(INSERT)")
		t0 := time.Now()
		_, err := s.Exec(q)
		lat = append(lat, ms(time.Since(t0)))
		sp.end()
		o.op(err)
		if err != nil {
			return fmt.Errorf("INSERT: %w", err)
		}
		userBytes += user[k]
	}
	o.set("db.insert_ms", median(lat))
	o.set("db.wal_bytes_per_user_byte", float64(s.WALSize()-size0)/float64(userBytes))
	o.set("db.wal_syncs_per_insert", float64(reg.Counter(obs.WALSyncs)-syncs0)/batches)
	return nil
}

// serveLayer drives a serve-mixed window as long as an untraced run's,
// then probes the protocol floor,
// the warm predict path, and a predict right after an INSERT on the same
// server, and checks the outputs as serve-mixed does.
func (l *ladder) serveLayer() error {
	cfg, o := l.cfg, l.o
	ld, rig, err := serveWindow(cfg, l.tr, o, cfg.window, 1)
	if err != nil {
		return err
	}
	if err := l.serveProbes(rig, ld); err != nil {
		rig.close()
		return err
	}
	live, reopened, err := finishServe(rig)
	if err != nil {
		return err
	}
	o.check(checkServe(ld, rig.initial, live, reopened))
	entry, _ := rig.sess.Table("s")
	o.set("storage.tuples_per_block", float64(live)/float64(entry.Table.NumBlocks()))

	var wait, wall, cpu, total []float64
	for _, j := range ld.jobs {
		if j.Stats == nil {
			return fmt.Errorf("job %s reported no stats", j.ID)
		}
		wait = append(wait, j.Stats.QueueWaitMs)
		wall = append(wall, j.Stats.WallMs)
		cpu = append(cpu, j.Stats.CPUMs)
		total = append(total, (j.Stats.QueueWaitMs+j.Stats.WallMs)/1e3)
	}
	o.set("serve.predict_p99_ms", quantile(ld.predictLat, 0.99))
	o.set("serve.insert_p50_ms", quantile(ld.insertLat, 0.5))
	o.set("serve.insert_p99_ms", quantile(ld.insertLat, 0.99))
	o.set("serve.train_job_s", median(total))
	o.set("serve.queue_wait_ms", median(wait))
	o.set("serve.job_wall_ms", median(wall))
	o.set("serve.job_cpu_ms", median(cpu))
	o.set("serve.reject_ratio", float64(ld.rejected)/float64(ld.submits))
	o.set("bench.gen_late_p99_ms", quantile(ld.late, 0.99))
	return nil
}

// serveProbes times single requests on an idle server. Rows the probes
// insert join ld's acknowledged count for the final check.
func (l *ladder) serveProbes(rig *serveRig, ld *serveLoad) error {
	o := l.o
	// probe calls call n times, each after prep, and reports the median
	// duration of call in unit.
	probe := func(metric, name string, n int, unit time.Duration, prep, call func() error) error {
		var xs []float64
		for i := 0; i < n; i++ {
			if prep != nil {
				if err := prep(); err != nil {
					return err
				}
			}
			sp := l.tr.begin(name)
			t0 := time.Now()
			err := call()
			d := time.Since(t0)
			sp.end()
			o.op(err)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			xs = append(xs, float64(d)/float64(unit))
		}
		o.set(metric, median(xs))
		return nil
	}
	predict := func() error {
		resp, err := rig.a.Predict(predictSQL)
		if err == nil && len(resp.Rows) != 1 {
			ld.badPredicts++
		}
		return err
	}
	jobs := func() error {
		_, err := rig.a.Jobs()
		return err
	}
	if err := probe("serve.rtt_us", "serve.Client.Jobs", 200, time.Microsecond, nil, jobs); err != nil {
		return err
	}
	// The window's last INSERT emptied the cache: the first probe refills it.
	if err := probe("serve.predict_warm_ms", "serve.Client.Predict", 31, time.Millisecond, nil, predict); err != nil {
		return err
	}
	stmts, _ := insertBatches("s", 20, l.cfg.sz.insertRows, l.cfg.seed+1)
	k := 0
	insert := func() error {
		_, err := rig.b.Exec(stmts[k])
		k++
		if err != nil {
			return fmt.Errorf("INSERT: %w", err)
		}
		ld.ackedRows += l.cfg.sz.insertRows
		return nil
	}
	return probe("serve.predict_after_insert_ms", "serve.Client.Predict", len(stmts), time.Millisecond, insert, predict)
}
