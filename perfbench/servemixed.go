package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/serve"
)

// serve-mixed: the serving plane under a mixed open-loop load. An
// in-process serve.Server (one TRAIN worker) serves a WAL-backed catalog
// over loopback TCP. Connection A sends PREDICT ... LIMIT 1 at a fixed
// rate; connection B sends 16-row INSERTs at a fixed rate and submits a
// background TRAIN job on a fixed schedule. Every request is timed from
// when it was due, so a stall also charges the requests queued behind it.

const predictSQL = "SELECT * FROM s PREDICT BY warm LIMIT 1"

// serveRig is one booted server with its two client connections.
type serveRig struct {
	dir     string
	sess    *db.Session
	srv     *serve.Server
	a, b    *serve.Client
	initial int // table tuples at boot
}

// bootServe opens a WAL-backed session in dir, loads the table and a
// pre-trained model, starts the server, connects both clients and fills
// the predict cache.
func bootServe(path, dir string) (*serveRig, error) {
	r := &serveRig{dir: dir, sess: db.NewSession()}
	if _, err := r.sess.OpenWAL(dir); err != nil {
		return nil, fmt.Errorf("open WAL: %w", err)
	}
	boot := []string{
		fmt.Sprintf("CREATE TABLE s FROM '%s' WITH device='ssd', block_size=64KB", path),
		fmt.Sprintf("SELECT * FROM s TRAIN BY lr MODEL warm WITH learning_rate=0.01, max_epoch_num=2, shuffle='corgipile', seed=%d", trainSeed),
	}
	for _, q := range boot {
		if _, err := r.sess.Exec(q); err != nil {
			r.sess.Close()
			return nil, fmt.Errorf("boot catalog: %w", err)
		}
	}
	entry, _ := r.sess.Table("s")
	r.initial = entry.Table.NumTuples()
	srv, err := serve.New(serve.Config{Workers: 1, Session: r.sess})
	if err != nil {
		r.sess.Close()
		return nil, err
	}
	r.srv = srv
	if r.a, err = serve.Dial(srv.Addr()); err == nil {
		r.b, err = serve.Dial(srv.Addr())
	}
	if err == nil {
		_, err = r.a.Predict(predictSQL)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the server and releases the session's WAL.
func (r *serveRig) close() error {
	for _, c := range []*serve.Client{r.a, r.b} {
		if c != nil {
			c.Close()
		}
	}
	err := r.srv.Close()
	if cerr := r.sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveLoad is what one open-loop window measured.
type serveLoad struct {
	predictLat, insertLat []float64 // ms from due time
	late                  []float64 // ms the generator sent after due
	predicts, badPredicts int
	predictErrs           int
	inserts, insertErrs   int
	ackedRows             int
	submits, rejected     int
	jobs                  []serve.JobStatus // final status with stats
	// final is the job trained after the window on the final table, and
	// finalAcc its model's accuracy over that table.
	final    serve.JobStatus
	finalAcc float64
	// setup holds the boot times and peakMiB the window's peak live heap.
	setup   []float64
	peakMiB float64
}

// loadPlan fixes the two connections' schedules for one window.
type loadPlan struct {
	window      time.Duration
	predictRate float64
	insertRate  float64
	inserts     []string
	insertRows  int
	trainEvery  time.Duration
	trainEpochs int
}

func newLoadPlan(cfg *config, window time.Duration) loadPlan {
	sz := cfg.sz
	n := int(window.Seconds()*sz.insertRate) + 1
	stmts, _ := insertBatches("s", n, sz.insertRows, cfg.seed)
	return loadPlan{
		window: window, predictRate: sz.predictRate, insertRate: sz.insertRate,
		inserts: stmts, insertRows: sz.insertRows, trainEvery: sz.trainEvery, trainEpochs: sz.serveTrainEpochs,
	}
}

// every returns the k-th due time of a fixed-rate schedule.
func every(start time.Time, k int, perSecond float64) time.Time {
	return start.Add(time.Duration(float64(k) * float64(time.Second) / perSecond))
}

// waitUntil sleeps until due and returns how late the send is.
func waitUntil(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}

// drive runs one open-loop window against rig and then waits for every
// submitted TRAIN job to finish.
func drive(rig *serveRig, p loadPlan, tr *tracer) (*serveLoad, error) {
	ld := &serveLoad{}
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(p.window)
	var mu sync.Mutex // guards ld.late, the one field both connections write
	lateMark := func(d time.Duration) {
		mu.Lock()
		ld.late = append(ld.late, ms(d))
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := every(start, k, p.predictRate)
			if !due.Before(end) {
				return
			}
			lateMark(waitUntil(due))
			sp := tr.begin("serve.Client.Predict")
			resp, err := rig.a.Predict(predictSQL)
			lat := time.Since(due)
			sp.end()
			ld.predicts++
			// A failed PREDICT keeps its latency: dropping it would let a
			// change that fails slow requests fast look like a speed-up.
			ld.predictLat = append(ld.predictLat, ms(lat))
			if err != nil {
				ld.predictErrs++
				continue
			}
			if len(resp.Rows) != 1 || !strings.Contains(resp.Message, "accuracy") {
				ld.badPredicts++
			}
		}
	}()

	// Connection B merges the INSERT and TRAIN schedules: the first job is
	// due a quarter into the window, then one every trainEvery.
	var jobIDs []string
	firstTrain := p.window / 4
	if firstTrain > time.Second {
		firstTrain = time.Second
	}
	ki, kt := 0, 0
	for {
		insDue := every(start, ki, p.insertRate).Add(time.Second / time.Duration(2*p.insertRate))
		trDue := start.Add(firstTrain + time.Duration(kt)*p.trainEvery)
		if !insDue.Before(end) && !trDue.Before(end) {
			break
		}
		if trDue.Before(insDue) {
			lateMark(waitUntil(trDue))
			sp := tr.begin("serve.Client.Train")
			js, err := rig.b.Train(trainSQL(fmt.Sprintf("bg%d", kt), p.trainEpochs), false, false)
			sp.end()
			ld.submits++
			if err != nil {
				ld.rejected++
			} else {
				jobIDs = append(jobIDs, js.ID)
			}
			kt++
			continue
		}
		lateMark(waitUntil(insDue))
		sp := tr.begin("serve.Client.Exec(INSERT)")
		_, err := rig.b.Exec(p.inserts[ki])
		lat := time.Since(insDue)
		sp.end()
		ld.inserts++
		ld.insertLat = append(ld.insertLat, ms(lat))
		if err != nil {
			ld.insertErrs++
		} else {
			ld.ackedRows += p.insertRows
		}
		ki++
	}
	wg.Wait()

	for _, id := range jobIDs {
		if _, err := rig.b.Status(id, true); err != nil {
			return nil, fmt.Errorf("wait for job %s: %w", id, err)
		}
		js, err := rig.b.StatusStats(id)
		if err != nil {
			return nil, fmt.Errorf("job %s stats: %w", id, err)
		}
		ld.jobs = append(ld.jobs, *js)
	}

	// The window's jobs trained on whatever prefix of the INSERTs had
	// landed when they started, which depends on timing. One more job on
	// the final table, which the schedule alone fixes, gives the accuracy.
	final, err := rig.b.Train(trainSQL("final", p.trainEpochs), true, false)
	if err != nil {
		return nil, fmt.Errorf("final TRAIN: %w", err)
	}
	ld.final = *final
	resp, err := rig.a.Predict("SELECT * FROM s PREDICT BY final LIMIT 1")
	if err != nil {
		return nil, fmt.Errorf("predict with the final model: %w", err)
	}
	var rows int
	if _, err := fmt.Sscanf(resp.Message, "PREDICT: %d rows, accuracy %f", &rows, &ld.finalAcc); err != nil {
		return nil, fmt.Errorf("read accuracy from %q: %w", resp.Message, err)
	}
	return ld, nil
}

// trainSQL is the background TRAIN statement storing model name.
func trainSQL(name string, epochs int) string {
	return fmt.Sprintf("SELECT * FROM s TRAIN BY lr MODEL %s WITH learning_rate=0.01, max_epoch_num=%d, shuffle='corgipile', seed=%d",
		name, epochs, trainSeed)
}

// countTuples reads table s's tuple count from a session.
func countTuples(s *db.Session) (int, error) {
	entry, ok := s.Table("s")
	if !ok {
		return 0, fmt.Errorf("table s missing")
	}
	return entry.Table.NumTuples(), nil
}

// checkServe checks one window's outputs: every PREDICT and INSERT
// succeeded, every PREDICT answered its LIMIT with an accuracy, every job
// finished, and the table holds exactly the boot tuples plus every
// acknowledged INSERT row, both live and after the WAL is reopened in a
// fresh session. A refused TRAIN submit is admission control doing its
// job; it counts as failed in the result but passes the check.
func checkServe(ld *serveLoad, initial, live, reopened int) error {
	if ld.predictErrs > 0 {
		return fmt.Errorf("serve-mixed: %d of %d PREDICTs failed", ld.predictErrs, ld.predicts)
	}
	if ld.insertErrs > 0 {
		return fmt.Errorf("serve-mixed: %d of %d INSERTs failed", ld.insertErrs, ld.inserts)
	}
	if ld.badPredicts > 0 {
		return fmt.Errorf("serve-mixed: %d PREDICTs lacked their LIMIT row or accuracy", ld.badPredicts)
	}
	if len(ld.jobs) == 0 {
		return fmt.Errorf("serve-mixed: no background TRAIN job ran")
	}
	for _, j := range ld.jobs {
		if j.State != serve.JobDone {
			return fmt.Errorf("serve-mixed: job %s ended %s %s", j.ID, j.State, j.Error)
		}
	}
	if ld.final.State != serve.JobDone {
		return fmt.Errorf("serve-mixed: final job ended %s %s", ld.final.State, ld.final.Error)
	}
	want := initial + ld.ackedRows
	if live != want {
		return fmt.Errorf("serve-mixed: table has %d tuples, want %d boot + %d acknowledged", live, initial, ld.ackedRows)
	}
	if reopened != want {
		return fmt.Errorf("serve-mixed: reopened WAL has %d tuples, want %d", reopened, want)
	}
	return nil
}

// finishServe stops the rig and recounts the table live and from a fresh
// session over the same WAL directory.
func finishServe(rig *serveRig) (live, reopened int, err error) {
	if err := rig.srv.Close(); err != nil {
		return 0, 0, err
	}
	// Server.Close waits for every handler, so the session is quiescent.
	if live, err = countTuples(rig.sess); err != nil {
		return 0, 0, err
	}
	if err := rig.sess.Close(); err != nil {
		return 0, 0, err
	}
	fresh := db.NewSession()
	if _, err := fresh.OpenWAL(rig.dir); err != nil {
		return 0, 0, fmt.Errorf("reopen WAL: %w", err)
	}
	defer fresh.Close()
	reopened, err = countTuples(fresh)
	return live, reopened, err
}

// writeSusyFile generates the serve-mixed table's LIBSVM file.
func writeSusyFile(cfg *config) (string, error) {
	path := filepath.Join(cfg.dir, "susy.libsvm")
	if err := writeLIBSVM(path, susyLike(cfg.sz.serveTuples, cfg.seed)); err != nil {
		return "", fmt.Errorf("write input: %w", err)
	}
	return path, nil
}

// bootServeTimed boots reps rigs, keeps the last and returns the set-up
// times.
func bootServeTimed(cfg *config, path string, reps int) (*serveRig, []float64, error) {
	var rig *serveRig
	var setup []float64
	for i := 0; i < reps; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(rig.dir)
		}
		settle()
		// A fresh directory per boot: a reused one would replay the last
		// boot's log.
		dir, err := os.MkdirTemp(cfg.dir, "wal-")
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if rig, err = bootServe(path, dir); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return rig, setup, nil
}

// serveWindow writes the table's input, boots the server reps times
// keeping the last boot, drives one window against it and counts the
// window's operations into o. The returned rig is still running.
func serveWindow(cfg *config, tr *tracer, o *outcome, window time.Duration, reps int) (*serveLoad, *serveRig, error) {
	path, err := writeSusyFile(cfg)
	if err != nil {
		return nil, nil, err
	}
	rig, setup, err := bootServeTimed(cfg, path, reps)
	if err != nil {
		return nil, nil, err
	}
	plan := newLoadPlan(cfg, window)
	settle()
	heap := startHeapSampler(5 * time.Millisecond)
	ld, err := drive(rig, plan, tr)
	peak := heap.stopMiB()
	if err != nil {
		rig.close()
		return nil, nil, err
	}
	ld.setup, ld.peakMiB = setup, peak
	o.ops(ld.predicts, ld.predictErrs)
	o.ops(ld.inserts, ld.insertErrs)
	o.ops(ld.submits, ld.rejected)
	return ld, rig, nil
}

func runServeMixed(cfg *config, tr *tracer, o *outcome) error {
	ld, rig, err := serveWindow(cfg, tr, o, cfg.window, cfg.sz.setupReps)
	if err != nil {
		return err
	}
	live, reopened, err := finishServe(rig)
	if err != nil {
		return err
	}
	o.check(checkServe(ld, rig.initial, live, reopened))
	o.check(checkFloor("serve-mixed", ld.finalAcc))
	if len(ld.predictLat) == 0 {
		return fmt.Errorf("no PREDICT was sent")
	}
	// Jobs are short, so their throughput is pooled: all tuples over all
	// execution time.
	var tuples, wallMs float64
	for _, j := range ld.jobs {
		if j.Stats != nil {
			tuples += float64(j.Stats.Tuples)
			wallMs += j.Stats.WallMs
		}
	}
	if !(wallMs > 0) {
		return fmt.Errorf("no TRAIN job reported stats")
	}
	o.set("setup_s", median(ld.setup))
	o.set("train_tuples_per_s", tuples/(wallMs/1e3))
	o.set("final_acc", ld.finalAcc)
	o.set("op_p50_ms", quantile(ld.predictLat, 0.5))
	o.set("op_p95_ms", quantile(ld.predictLat, 0.95))
	o.set("peak_heap_mb", ld.peakMiB)
	return nil
}
