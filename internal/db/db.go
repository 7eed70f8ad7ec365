// Package db glues the SQL front end to the storage engine and the
// executor: a catalog of tables and trained models, and a session that
// executes parsed statements. It is the top of the in-DB ML stack — the
// analogue of the paper's modified PostgreSQL.
package db

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// TableEntry is a catalog entry for a stored table.
type TableEntry struct {
	Name  string
	Table *storage.Table
	// Device names the device class the table lives on.
	Device string
}

// ModelEntry is a catalog entry for a trained model.
type ModelEntry struct {
	Name string
	// Kind is the model type ("svm", "lr", ...).
	Kind  string
	Model ml.Model
	W     []float64
	// Features and Classes describe the training table's schema.
	Features int
	Classes  int
	// Table names the table the model was trained on and TrainedBlocks is
	// the block frontier it has seen: TRAIN ... WITH resume='name' folds
	// only blocks appended past this frontier into the next run. Both are
	// zero for models loaded from a file (not resumable).
	Table         string
	TrainedBlocks int
	// Epochs holds the per-epoch training metrics.
	Epochs []executor.EpochRow
	// Breakdown holds the per-epoch cross-layer time breakdown when the
	// session has a metrics registry attached (nil otherwise).
	Breakdown []obs.EpochMetrics
	// Plan holds the executed plan's per-operator profile when the model
	// was trained through EXPLAIN ANALYZE (nil otherwise).
	Plan *obs.PlanStats
}

// Result is the tabular output of a statement.
type Result struct {
	Columns []string
	Rows    [][]string
	// Message carries non-tabular feedback ("CREATE TABLE", row counts).
	Message string
	// Breakdown carries a TRAIN statement's per-epoch cross-layer time
	// breakdown when the session has a metrics registry attached.
	Breakdown []obs.EpochMetrics
	// Plan carries the executed plan's per-operator profile for EXPLAIN
	// ANALYZE statements (nil otherwise).
	Plan *obs.PlanStats
}

// Session executes statements against a private catalog, simulated devices,
// and one shared simulated clock.
type Session struct {
	clock   *iosim.Clock
	devices map[string]*iosim.Device
	tables  map[string]*TableEntry
	models  map[string]*ModelEntry
	obs     *obs.Registry
	feed    *obs.RunFeed
	diag    *core.DiagConfig
	nextID  int
	// events is the structured event log (nil = introspection idle) and
	// virtual holds the registered system tables the general SELECT path
	// reads (corgi_tables, corgi_jobs, ...).
	events  *obs.EventLog
	virtual map[string]*VirtualTable
	// history is the sampled metrics time-series store backing
	// corgi_metrics_history and corgi_alerts (nil = zero rows).
	history *obs.History
	// walOpened is the wall-clock instant OpenWAL finished recovery — the
	// checkpoint-age baseline until the first CHECKPOINT lands.
	walOpened time.Time
	// wal and walDir are set by OpenWAL; a nil wal means the session is
	// purely in-memory (the default) and mutation logging is a no-op.
	wal    *storage.WAL
	walDir string
	// readOnly rejects every mutating statement — the replica mode, flipped
	// off by PROMOTE. Atomic because the serving plane reads it outside the
	// catalog lock for TRAIN admission.
	readOnly atomic.Bool
}

// NewSession returns an empty session with HDD, SSD and RAM devices sharing
// one clock. Each device carries a 16 GiB simulated OS cache.
func NewSession() *Session {
	clock := iosim.NewClock()
	devs := map[string]*iosim.Device{
		"hdd": iosim.NewDevice(iosim.HDD, clock).WithCache(16 << 30),
		"ssd": iosim.NewDevice(iosim.SSD, clock).WithCache(16 << 30),
		"ram": iosim.NewDevice(iosim.RAM, clock).WithCache(16 << 30),
	}
	s := &Session{
		clock:   clock,
		devices: devs,
		tables:  make(map[string]*TableEntry),
		models:  make(map[string]*ModelEntry),
		virtual: make(map[string]*VirtualTable),
	}
	s.registerSystemTables()
	return s
}

// Clock returns the session's simulated clock.
func (s *Session) Clock() *iosim.Clock { return s.clock }

// WithMetrics attaches a metrics registry to the session: the registry
// measures spans on the session clock, every device reports I/O into it,
// and TRAIN statements record per-epoch breakdowns (ModelEntry.Breakdown).
// It returns the session.
func (s *Session) WithMetrics(reg *obs.Registry) *Session {
	s.obs = reg
	reg.WithClock(s.clock)
	for _, dev := range s.devices {
		dev.WithObs(reg)
	}
	return s
}

// Metrics returns the session's metrics registry (nil when none attached).
func (s *Session) Metrics() *obs.Registry { return s.obs }

// WithEvents attaches a structured event log: every executed statement
// emits start/finish events (with duration, error code and — over the
// wire — the request's trace ID), an open WAL reports sync failures into
// it, and the corgi_events / corgi_spans system tables read from it. It
// returns the session. A session without an event log skips all event
// emission — introspection is strictly opt-in.
func (s *Session) WithEvents(el *obs.EventLog) *Session {
	s.events = el
	if s.wal != nil {
		s.wal.WithEvents(el)
	}
	return s
}

// Events returns the session's event log (nil when none attached).
func (s *Session) Events() *obs.EventLog { return s.events }

// WithHistory attaches a metrics history store: the corgi_metrics_history
// and corgi_alerts system tables read sampled series and alert states
// from it. The session never samples — the owner runs the sampler against
// whatever registry it exposes. It returns the session. Without a store
// both tables render zero rows.
func (s *Session) WithHistory(h *obs.History) *Session {
	s.history = h
	return s
}

// History returns the session's metrics history store (nil when none
// attached).
func (s *Session) History() *obs.History { return s.history }

// WithFeed attaches a live run feed: every TRAIN statement publishes one
// RunStatus update per epoch to it (the telemetry server's /run source).
// It returns the session.
func (s *Session) WithFeed(feed *obs.RunFeed) *Session {
	s.feed = feed
	return s
}

// WithDiag attaches a convergence-diagnostics configuration: every TRAIN
// statement tracks gradient/update norms and the plateau/divergence
// verdict (read-only; the loss trace is unchanged). It returns the
// session.
func (s *Session) WithDiag(d *core.DiagConfig) *Session {
	s.diag = d
	return s
}

// Table returns the named table entry.
func (s *Session) Table(name string) (*TableEntry, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Model returns the named model entry.
func (s *Session) Model(name string) (*ModelEntry, bool) {
	m, ok := s.models[strings.ToLower(name)]
	return m, ok
}

// Exec parses and executes one statement.
func (s *Session) Exec(sql string) (*Result, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStatement(st)
}

// ExecScript executes a semicolon-separated script, returning the result of
// each statement.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	var results []*Result
	for _, st := range stmts {
		r, err := s.ExecStatement(st)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// ExecStatement executes a parsed statement.
func (s *Session) ExecStatement(st sqlparse.Statement) (*Result, error) {
	return s.ExecStatementT(st, "")
}

// ExecStatementT executes a parsed statement attributed to a trace ID.
// When the session has an event log, it emits statement start/finish
// events (the finish event carries the wall-clock duration and the error
// text, plus a companion slow-statement event past the armed threshold);
// without one the path is identical to ExecStatement.
func (s *Session) ExecStatementT(st sqlparse.Statement, trace string) (*Result, error) {
	if s.events == nil {
		return s.execStatement(st)
	}
	kind := StatementKind(st)
	s.events.Emit(obs.EvStatementStart, trace, kind)
	start := time.Now()
	res, err := s.execStatement(st)
	dur := time.Since(start)
	ev := obs.Event{
		Type: obs.EvStatementFinish, Trace: trace, Detail: kind,
		DurMs: float64(dur) / float64(time.Millisecond),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.events.Record(ev)
	if s.events.Slow(dur) {
		s.events.Record(obs.Event{
			Type: obs.EvStatementSlow, Trace: trace, Detail: kind,
			DurMs: float64(dur) / float64(time.Millisecond),
		})
	}
	return res, err
}

// StatementKind names a statement for event details: the statement verb
// plus its primary object, e.g. "train t" or "select corgi_jobs".
func StatementKind(st sqlparse.Statement) string {
	switch st := st.(type) {
	case *sqlparse.CreateTable:
		return "create_table " + strings.ToLower(st.Name)
	case *sqlparse.Train:
		return "train " + strings.ToLower(st.Table)
	case *sqlparse.Predict:
		return "predict " + strings.ToLower(st.Table)
	case *sqlparse.Select:
		return "select " + strings.ToLower(st.Table)
	case *sqlparse.Show:
		return "show " + st.What
	case *sqlparse.Drop:
		return "drop " + strings.ToLower(st.Name)
	case *sqlparse.Explain:
		return "explain " + strings.ToLower(st.Train.Table)
	case *sqlparse.Analyze:
		return "analyze " + strings.ToLower(st.Table)
	case *sqlparse.SaveModel:
		return "save_model " + strings.ToLower(st.Name)
	case *sqlparse.LoadModel:
		return "load_model " + strings.ToLower(st.Name)
	case *sqlparse.Insert:
		return "insert " + strings.ToLower(st.Table)
	case *sqlparse.LoadTable:
		return "load_into " + strings.ToLower(st.Table)
	case *sqlparse.Checkpoint:
		return "checkpoint"
	case *sqlparse.Promote:
		return "promote"
	}
	return fmt.Sprintf("%T", st)
}

// execStatement dispatches a parsed statement to its handler.
func (s *Session) execStatement(st sqlparse.Statement) (*Result, error) {
	if s.readOnly.Load() {
		if kind, bad := mutatingKind(st); bad {
			return nil, fmt.Errorf("db: %s rejected: %w", kind, ErrReadOnly)
		}
	}
	switch st := st.(type) {
	case *sqlparse.CreateTable:
		return s.execCreate(st)
	case *sqlparse.Select:
		return s.execSelect(st)
	case *sqlparse.Train:
		return s.execTrain(st)
	case *sqlparse.Predict:
		return s.execPredict(st)
	case *sqlparse.Show:
		return s.execShow(st)
	case *sqlparse.Drop:
		return s.execDrop(st)
	case *sqlparse.Explain:
		return s.execExplain(st)
	case *sqlparse.Analyze:
		return s.execAnalyze(st)
	case *sqlparse.SaveModel:
		return s.execSave(st)
	case *sqlparse.LoadModel:
		return s.execLoad(st)
	case *sqlparse.Insert:
		return s.execInsert(st)
	case *sqlparse.LoadTable:
		return s.execLoadTable(st)
	case *sqlparse.Checkpoint:
		return s.execCheckpoint()
	case *sqlparse.Promote:
		// A bare session has no replication stream to stop; PROMOTE just
		// clears the read-only latch. corgiserved intercepts PROMOTE before
		// it reaches here to also tear down its replica connection.
		s.SetReadOnly(false)
		return &Result{Message: "promoted: session is writable"}, nil
	}
	return nil, fmt.Errorf("db: unsupported statement %T", st)
}

func (s *Session) execCreate(st *sqlparse.CreateTable) (*Result, error) {
	name := strings.ToLower(st.Name)
	if _, exists := s.tables[name]; exists {
		return nil, fmt.Errorf("db: table %q already exists", st.Name)
	}

	var ds *data.Dataset
	switch {
	case st.Synthetic != nil:
		workload := st.Synthetic.Str("workload", "")
		if workload == "" {
			return nil, fmt.Errorf("db: SYNTHETIC requires workload=...")
		}
		scale := st.Synthetic.Num("scale", 1)
		order, err := parseOrder(st.Synthetic.Str("order", "clustered"))
		if err != nil {
			return nil, err
		}
		w, ok := data.Workloads[workload]
		if !ok {
			return nil, fmt.Errorf("db: unknown workload %q", workload)
		}
		seed := int64(st.Synthetic.Num("seed", float64(w.Base.Seed)))
		ds = data.GenerateSeed(workload, scale, order, seed)
	case st.SourceFile != "":
		f, err := os.Open(st.SourceFile)
		if err != nil {
			return nil, fmt.Errorf("db: %w", err)
		}
		defer f.Close()
		ds, err = data.ReadLIBSVM(f, name, 0)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("db: CREATE TABLE needs AS SYNTHETIC or FROM 'file'")
	}

	devName := strings.ToLower(st.With.Str("device", "hdd"))
	dev, ok := s.devices[devName]
	if !ok {
		return nil, fmt.Errorf("db: unknown device %q (hdd, ssd, ram)", devName)
	}
	if spec := st.With.Str("faults", ""); spec != "" {
		// A faulty table gets its own device instance (same profile, same
		// clock) so the injected faults never leak into other tables.
		plan, err := iosim.ParseFaultPlan(spec)
		if err != nil {
			return nil, fmt.Errorf("db: %w", err)
		}
		prof, _ := iosim.ProfileByName(devName)
		dev = iosim.NewDevice(prof, s.clock).WithCache(16 << 30).WithFaults(plan)
		if s.obs != nil {
			dev.WithObs(s.obs)
		}
	}
	opts := storage.Options{
		BlockSize: int64(st.With.Num("block_size", 10<<20)),
		Compress:  st.With.Bool("compress", false),
	}
	tab, err := storage.Build(dev, ds, opts)
	if err != nil {
		return nil, err
	}
	entry := &TableEntry{Name: name, Table: tab, Device: devName}
	if err := s.logCreateTable(entry); err != nil {
		return nil, err
	}
	s.tables[name] = entry
	return &Result{Message: fmt.Sprintf("CREATE TABLE: %d tuples, %d blocks, %d bytes on %s",
		tab.NumTuples(), tab.NumBlocks(), tab.SizeBytes(), devName)}, nil
}

func (s *Session) execTrain(st *sqlparse.Train) (*Result, error) {
	pt, rows, modelName, err := s.runTrain(st, false)
	if err != nil {
		return nil, err
	}
	op := pt.op
	res := &Result{
		Columns:   []string{"epoch", "loss", "accuracy", "seconds", "tuples"},
		Message:   trainMessage("TRAIN", modelName, op) + resumeNote(pt),
		Breakdown: op.Breakdown,
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(r.Epoch),
			fmt.Sprintf("%.6f", r.Loss),
			fmt.Sprintf("%.4f", r.Accuracy),
			fmt.Sprintf("%.3f", r.Seconds),
			strconv.Itoa(r.Tuples),
		})
	}
	return res, nil
}

// TrainOptions overrides the session-level execution hooks for one TRAIN
// statement — the serving plane's per-job knobs. The zero value inherits
// the session's registry, feed and diagnostics, never cancels, and leaves
// profiling off.
type TrainOptions struct {
	// Ctx, when non-nil, cancels the run: the executor checks it between
	// epochs and every few hundred tuples inside one, so a canceled context
	// stops an in-flight epoch promptly.
	Ctx context.Context
	// Obs, when non-nil, replaces the session metrics registry for this
	// run (per-job epoch breakdowns for concurrent trains).
	Obs *obs.Registry
	// Feed, when non-nil, replaces the session run feed for this run
	// (per-job live status for concurrent trains).
	Feed *obs.RunFeed
	// RunName labels feed updates (default "train <model>").
	RunName string
	// Profile enables the per-operator runtime profile (EXPLAIN ANALYZE).
	Profile bool
	// Events, when non-nil, receives per-epoch wall-clock spans stamped
	// with Trace — the serving plane threads its event log and the wire
	// request's trace ID through here so corgi_spans can reconstruct a
	// TRAIN job's timeline.
	Events *obs.EventLog
	// Trace is the request trace ID attributed to this run's events.
	Trace string
}

// PreparedTrain is a TRAIN statement bound to an executable plan. The
// three-phase Prepare → Execute → Install split exists for the serving
// plane: Prepare and Install read/write the catalog (callers serialize
// them), while Execute — the long-running part — touches no catalog state
// and may run outside any lock, concurrently with other statements.
type PreparedTrain struct {
	st    *sqlparse.Train
	entry *TableEntry
	cfg   executor.PlanConfig
	op    *executor.SGDOp
	// resume is the model this run continues (nil for a fresh train) and
	// frontier is the table's block count captured at prepare time — the
	// installed model's TrainedBlocks. The block range a resumed run reads
	// is frozen here, so blocks appended while the plan executes never leak
	// into it and the run stays bit-deterministic.
	resume   *ModelEntry
	frontier int
}

// Op returns the plan's root SGD operator.
func (pt *PreparedTrain) Op() *executor.SGDOp { return pt.op }

// Resumed returns the model this run continued, or nil for a fresh train.
func (pt *PreparedTrain) Resumed() *ModelEntry { return pt.resume }

// AvgBlockBytes returns the source table's mean block size in bytes. The
// serving plane multiplies it by the shuffle's block counter to estimate a
// job's bytes read (per-block I/O is counted on the session registry, not
// the job's, so the job-level figure is reconstructed).
func (pt *PreparedTrain) AvgBlockBytes() int64 {
	n := pt.entry.Table.NumBlocks()
	if n == 0 {
		return 0
	}
	return pt.entry.Table.SizeBytes() / int64(n)
}

// resumableKinds are the strategies incremental training supports: each
// treats the source as an opaque block pool, so restricting it to the
// newly appended range is exactly "fold the new blocks in". The other
// strategies need a full-shuffle materialization of the whole table,
// which contradicts training on a slice.
var resumableKinds = map[shuffle.Kind]bool{
	shuffle.KindCorgiPile: true,
	shuffle.KindBlockOnly: true,
	shuffle.KindNoShuffle: true,
}

// PrepareTrain resolves the statement's table and builds the physical plan,
// including the out-of-band evaluation decode. It reads the catalog but
// does not mutate it. With resume='model', the plan starts from that
// model's weights and scans only the blocks appended since it was trained;
// evaluation still covers the whole table.
func (s *Session) PrepareTrain(st *sqlparse.Train, opt TrainOptions) (*PreparedTrain, error) {
	entry, ok := s.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	cfg, err := s.trainPlanConfig(st, entry, true, opt)
	if err != nil {
		return nil, err
	}
	var src shuffle.Source = shuffle.TableSource(entry.Table)
	frontier := entry.Table.NumBlocks()
	var resume *ModelEntry
	if name := st.Params.Str("resume", ""); name != "" {
		m, ok := s.Model(name)
		if !ok {
			return nil, fmt.Errorf("db: resume: unknown model %q", name)
		}
		if m.Kind != st.ModelType {
			return nil, fmt.Errorf("db: resume: model %q is %q, statement trains %q", name, m.Kind, st.ModelType)
		}
		if m.Table != entry.Name {
			return nil, fmt.Errorf("db: resume: model %q was trained on table %q, not %q", name, m.Table, entry.Name)
		}
		if m.Features != entry.Table.Features() {
			return nil, fmt.Errorf("db: resume: model %q has %d features, table %q has %d",
				name, m.Features, entry.Name, entry.Table.Features())
		}
		if !resumableKinds[cfg.Shuffle] {
			return nil, fmt.Errorf("db: resume supports shuffle 'corgipile', 'block_only' or 'no_shuffle' (got %q)", cfg.Shuffle)
		}
		if frontier <= m.TrainedBlocks {
			return nil, fmt.Errorf("db: resume: table %q has no blocks beyond model %q's frontier (%d)",
				entry.Name, name, m.TrainedBlocks)
		}
		src = shuffle.SliceSource(src, m.TrainedBlocks, frontier)
		w := append([]float64(nil), m.W...)
		cfg.SGD.InitWeights = func(dst []float64) { copy(dst, w) }
		resume = m
	}
	op, err := executor.BuildSGDPlan(src, cfg)
	if err != nil {
		return nil, err
	}
	return &PreparedTrain{st: st, entry: entry, cfg: cfg, op: op, resume: resume, frontier: frontier}, nil
}

// Execute runs every configured epoch and returns the per-epoch metric
// rows. It never touches the catalog, so it is safe to run outside the
// caller's catalog lock; on cancellation it returns the context's error
// wrapped by the executor.
func (pt *PreparedTrain) Execute() ([]executor.EpochRow, error) {
	return pt.op.Run()
}

// InstallModel stores the executed plan's trained model in the catalog
// under the statement's model name (or a generated one), logs it to the
// WAL when the session is durable, and returns the entry. It mutates the
// catalog; the serving plane calls it under its write lock.
func (s *Session) InstallModel(pt *PreparedTrain, rows []executor.EpochRow) (*ModelEntry, error) {
	modelName := strings.ToLower(pt.st.ModelName)
	if modelName == "" {
		s.nextID++
		modelName = fmt.Sprintf("model%d", s.nextID)
	}
	entry := &ModelEntry{
		Name: modelName, Kind: pt.st.ModelType, Model: pt.cfg.SGD.Model, W: pt.op.W,
		Features: pt.entry.Table.Features(), Classes: pt.entry.Table.Classes(), Epochs: rows,
		Breakdown: pt.op.Breakdown,
		Plan:      pt.op.Plan(),
		Table:     pt.entry.Name, TrainedBlocks: pt.frontier,
	}
	if err := s.logModel(entry); err != nil {
		return nil, err
	}
	s.models[modelName] = entry
	return entry, nil
}

// runTrain builds the full plan for a TRAIN statement, executes it, and
// stores the trained model in the catalog. profile enables the per-operator
// runtime profile (EXPLAIN ANALYZE); a plain TRAIN leaves it off so the
// executor hot path is untouched.
func (s *Session) runTrain(st *sqlparse.Train, profile bool) (*PreparedTrain, []executor.EpochRow, string, error) {
	pt, err := s.PrepareTrain(st, TrainOptions{Profile: profile})
	if err != nil {
		return nil, nil, "", err
	}
	rows, err := pt.Execute()
	if err != nil {
		return nil, nil, "", err
	}
	entry, err := s.InstallModel(pt, rows)
	if err != nil {
		return nil, nil, "", err
	}
	return pt, rows, entry.Name, nil
}

// trainMessage formats the statement's status line, appending the fault
// summary when the run degraded and the convergence verdict when the
// session tracks diagnostics.
func trainMessage(verb, modelName string, op *executor.SGDOp) string {
	msg := fmt.Sprintf("%s: model %q stored", verb, modelName)
	if op.Faults != nil {
		if sum := op.Faults.Summary(); sum.Degraded() {
			msg += "; faults: " + sum.String()
		}
	}
	if op.Verdict != "" {
		msg += "; verdict: " + string(op.Verdict)
	}
	return msg
}

// resumeNote renders the incremental-training suffix of a TRAIN message.
func resumeNote(pt *PreparedTrain) string {
	if pt.resume == nil {
		return ""
	}
	return fmt.Sprintf("; resumed from %q (+%d blocks)", pt.resume.Name, pt.frontier-pt.resume.TrainedBlocks)
}

// trainResilience builds the retry/degrade configuration from a TRAIN
// statement's WITH-params: retries=N (extra attempts after the first),
// retry_backoff_ms=M, on_corrupt=fail|skip, max_skip_fraction=F.
func trainResilience(params sqlparse.Params, seed int64) (shuffle.Resilience, error) {
	policy, err := shuffle.ParseFailurePolicy(params.Str("on_corrupt", ""))
	if err != nil {
		return shuffle.Resilience{}, fmt.Errorf("db: %w", err)
	}
	return shuffle.Resilience{
		Retry: storage.RetryPolicy{
			MaxAttempts: int(params.Num("retries", 0)) + 1,
			Backoff:     time.Duration(params.Num("retry_backoff_ms", 0) * float64(time.Millisecond)),
			Seed:        seed,
		},
		OnCorrupt:       policy,
		MaxSkipFraction: params.Num("max_skip_fraction", 0),
	}, nil
}

// CompilePredicate compiles a parsed WHERE predicate to a tuple filter
// (nil predicate = nil filter, meaning "keep everything"). Exported for the
// serving plane's cached PREDICT path, which evaluates predicates over
// in-memory tuples without building an executor pipeline.
func CompilePredicate(p *sqlparse.Predicate) func(*data.Tuple) bool {
	if p == nil {
		return nil
	}
	field := func(t *data.Tuple) float64 {
		if p.Column == "id" {
			return float64(t.ID)
		}
		return t.Label
	}
	switch p.Op {
	case "=":
		return func(t *data.Tuple) bool { return field(t) == p.Value }
	case "!=":
		return func(t *data.Tuple) bool { return field(t) != p.Value }
	case "<":
		return func(t *data.Tuple) bool { return field(t) < p.Value }
	case "<=":
		return func(t *data.Tuple) bool { return field(t) <= p.Value }
	case ">":
		return func(t *data.Tuple) bool { return field(t) > p.Value }
	case ">=":
		return func(t *data.Tuple) bool { return field(t) >= p.Value }
	}
	return func(*data.Tuple) bool { return true }
}

func (s *Session) execPredict(st *sqlparse.Predict) (*Result, error) {
	entry, ok := s.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	m, ok := s.Model(st.Model)
	if !ok {
		return nil, fmt.Errorf("db: unknown model %q", st.Model)
	}
	var scan executor.Operator = executor.NewScan(shuffle.TableSource(entry.Table))
	if f := CompilePredicate(st.Where); f != nil {
		scan = executor.NewFilter(scan, f)
	}
	pred := executor.NewPredict(scan, m.Model, m.W)
	if err := pred.Init(); err != nil {
		return nil, err
	}
	defer pred.Close()

	res := &Result{Columns: []string{"id", "label", "prediction"}}
	correct, n := 0, 0
	for {
		p, ok, err := pred.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n++
		if entry.Table.Task() != data.TaskRegression && (p.Pred >= 0) == (p.Label >= 0) &&
			(entry.Table.Task() != data.TaskMulticlass || p.Pred == p.Label) {
			correct++
		}
		if st.Limit == 0 || len(res.Rows) < st.Limit {
			res.Rows = append(res.Rows, []string{
				strconv.FormatInt(p.ID, 10),
				fmt.Sprintf("%g", p.Label),
				fmt.Sprintf("%g", p.Pred),
			})
		}
	}
	if entry.Table.Task() != data.TaskRegression && n > 0 {
		res.Message = fmt.Sprintf("PREDICT: %d rows, accuracy %.4f", n, float64(correct)/float64(n))
	} else {
		res.Message = fmt.Sprintf("PREDICT: %d rows", n)
	}
	return res, nil
}

// trainPlanConfig builds the executor plan configuration a TRAIN statement
// describes. Shared by execTrain (withEval=true: the evaluation set is the
// table decoded out-of-band, restricted to the WHERE predicate) and
// execExplain (withEval=false: only the plan shape matters, so the decode
// is skipped). opt overrides the session-level hooks per run and turns on
// the per-operator runtime profile.
func (s *Session) trainPlanConfig(st *sqlparse.Train, entry *TableEntry, withEval bool, opt TrainOptions) (executor.PlanConfig, error) {
	tab := entry.Table
	model, err := ml.New(st.ModelType, tab.Classes())
	if err != nil {
		return executor.PlanConfig{}, err
	}
	lr := st.Params.Num("learning_rate", 0.05)
	optimizer, err := ml.NewOptimizer(st.Params.Str("optimizer", "sgd"), lr)
	if err != nil {
		return executor.PlanConfig{}, err
	}
	if sgd, ok := optimizer.(*ml.SGD); ok {
		sgd.Decay = st.Params.Num("decay", 0.95)
	}
	seed := int64(st.Params.Num("seed", 1))
	resil, err := trainResilience(st.Params, seed)
	if err != nil {
		return executor.PlanConfig{}, err
	}
	reg, feed, runName := s.obs, s.feed, "train "+strings.ToLower(st.ModelName)
	if opt.Obs != nil {
		reg = opt.Obs
	}
	if opt.Feed != nil {
		feed = opt.Feed
	}
	if opt.RunName != "" {
		runName = opt.RunName
	}
	filter := CompilePredicate(st.Where)
	cfg := executor.PlanConfig{
		Shuffle:        shuffle.Kind(st.Params.Str("shuffle", string(shuffle.KindCorgiPile))),
		BufferFraction: st.Params.Num("buffer_fraction", 0.1),
		DoubleBuffer:   st.Params.Bool("double_buffer", true),
		Seed:           seed,
		Resilience:     resil,
		Filter:         filter,
		FilterDesc:     predicateDesc(st.Where),
		Profile:        opt.Profile,
		SGD: executor.SGDConfig{
			Model:     model,
			Opt:       optimizer,
			Features:  tab.Features(),
			Epochs:    int(st.Params.Num("max_epoch_num", 20)),
			BatchSize: int(st.Params.Num("batch_size", 1)),
			Procs:     int(st.Params.Num("procs", 1)),
			Clock:     s.clock,
			Obs:       reg,
			Feed:      feed,
			Diag:      s.diag,
			RunName:   runName,
			Ctx:       opt.Ctx,
			Events:    opt.Events,
			Trace:     opt.Trace,
		},
	}
	if withEval {
		eval, err := tab.DecodeAll()
		if err != nil {
			return executor.PlanConfig{}, err
		}
		if filter != nil {
			kept := eval[:0]
			for i := range eval {
				if filter(&eval[i]) {
					kept = append(kept, eval[i])
				}
			}
			eval = kept
		}
		cfg.SGD.Eval = &data.Dataset{
			Name: entry.Name, Task: tab.Task(),
			Features: tab.Features(), Classes: tab.Classes(), Tuples: eval,
		}
	}
	if mlp, ok := model.(ml.MLP); ok {
		feats := tab.Features()
		cfg.SGD.InitWeights = func(w []float64) {
			mlp.InitWeights(w, feats, rand.New(rand.NewSource(seed)))
		}
	}
	if fm, ok := model.(ml.FactorizationMachine); ok {
		feats := tab.Features()
		cfg.SGD.InitWeights = func(w []float64) {
			fm.InitWeights(w, feats, 0.01, rand.New(rand.NewSource(seed)))
		}
	}
	return cfg, nil
}

// predicateDesc renders a WHERE predicate for plan display.
func predicateDesc(p *sqlparse.Predicate) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("%s %s %g", p.Column, p.Op, p.Value)
}

// execExplain renders the physical plan of a TRAIN query. Plain EXPLAIN
// prints the static plan shape; EXPLAIN ANALYZE executes the statement —
// storing the model exactly like TRAIN would — and annotates every node
// with its measured row counts, self/total times and I/O statistics.
// FORMAT JSON emits the same tree as an indented JSON document.
func (s *Session) execExplain(st *sqlparse.Explain) (*Result, error) {
	if st.Analyze {
		return s.execExplainAnalyze(st)
	}
	entry, ok := s.Table(st.Train.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Train.Table)
	}
	cfg, err := s.trainPlanConfig(st.Train, entry, false, TrainOptions{})
	if err != nil {
		return nil, err
	}
	shape := executor.PlanShape(shuffle.TableSource(entry.Table), cfg)
	if st.Format == "json" {
		out, err := shape.JSON()
		if err != nil {
			return nil, err
		}
		return planResult(string(out), nil), nil
	}
	return planResult(shape.Text(false), nil), nil
}

// execExplainAnalyze runs the wrapped TRAIN with profiling enabled and
// renders the annotated plan.
func (s *Session) execExplainAnalyze(st *sqlparse.Explain) (*Result, error) {
	pt, _, modelName, err := s.runTrain(st.Train, true)
	if err != nil {
		return nil, err
	}
	op := pt.op
	plan := op.Plan()
	var text string
	if st.Format == "json" {
		out, err := plan.JSON()
		if err != nil {
			return nil, err
		}
		text = string(out)
	} else {
		text = plan.Text(true)
	}
	res := planResult(text, plan)
	res.Message = trainMessage("EXPLAIN ANALYZE", modelName, op)
	res.Breakdown = op.Breakdown
	return res, nil
}

// planResult wraps rendered plan text (one row per line) in a Result.
func planResult(text string, plan *obs.PlanStats) *Result {
	res := &Result{Columns: []string{"physical plan"}, Plan: plan}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []string{line})
	}
	return res
}

// execAnalyze estimates the table's cluster factor h_D and gradient
// variance at the named model's initial weights, and recommends a buffer
// size from the Theorem 1 bound.
func (s *Session) execAnalyze(st *sqlparse.Analyze) (*Result, error) {
	entry, ok := s.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	tab := entry.Table
	model, err := ml.New(st.Params.Str("model", "svm"), tab.Classes())
	if err != nil {
		return nil, err
	}
	tuples, err := tab.DecodeAll()
	if err != nil {
		return nil, err
	}
	ds := &data.Dataset{
		Name: entry.Name, Task: tab.Task(),
		Features: tab.Features(), Classes: tab.Classes(), Tuples: tuples,
	}
	blockTuples := tab.NumTuples() / tab.NumBlocks()
	if blockTuples < 1 {
		blockTuples = 1
	}
	w := make([]float64, model.Dim(tab.Features()))
	hd := core.HDFactor(model, w, ds, blockTuples)

	epochs := int(st.Params.Num("max_epoch_num", 20))
	params := core.BoundParams{
		N: tab.NumBlocks(), B: blockTuples, M: tab.NumTuples(),
		HD: hd, Sigma2: 1, // σ² scales both bounds identically; h_D carries the order information
		T: epochs * tab.NumTuples(),
	}
	nbuf, bound, full := core.RecommendBuffer(params, st.Params.Num("tolerance", 1.10))
	frac := float64(nbuf) / float64(tab.NumBlocks())

	res := &Result{Columns: []string{"metric", "value"}}
	add := func(k, v string) { res.Rows = append(res.Rows, []string{k, v}) }
	add("tuples", strconv.Itoa(tab.NumTuples()))
	add("blocks (N)", strconv.Itoa(tab.NumBlocks()))
	add("tuples per block (b)", strconv.Itoa(blockTuples))
	add("cluster factor h_D", fmt.Sprintf("%.2f (1 = shuffled, %d = fully clustered)", hd, blockTuples))
	add("recommended buffer", fmt.Sprintf("%d blocks (%.1f%% of table)", nbuf, frac*100))
	add("theorem-1 bound at recommendation", fmt.Sprintf("%.3g", bound))
	add("theorem-1 bound at full buffer", fmt.Sprintf("%.3g", full))
	res.Message = fmt.Sprintf("ANALYZE: buffer_fraction=%.3f recommended", frac)
	return res, nil
}

func (s *Session) execShow(st *sqlparse.Show) (*Result, error) {
	res := &Result{}
	switch st.What {
	case "tables":
		res.Columns = []string{"table", "tuples", "blocks", "bytes", "device"}
		names := sortedKeys(s.tables)
		for _, name := range names {
			t := s.tables[name]
			res.Rows = append(res.Rows, []string{
				name,
				strconv.Itoa(t.Table.NumTuples()),
				strconv.Itoa(t.Table.NumBlocks()),
				strconv.FormatInt(t.Table.SizeBytes(), 10),
				t.Device,
			})
		}
	case "models":
		res.Columns = []string{"model", "kind", "features", "epochs", "final_accuracy"}
		names := sortedKeys(s.models)
		for _, name := range names {
			m := s.models[name]
			acc := ""
			if len(m.Epochs) > 0 {
				acc = fmt.Sprintf("%.4f", m.Epochs[len(m.Epochs)-1].Accuracy)
			}
			res.Rows = append(res.Rows, []string{
				name, m.Kind, strconv.Itoa(m.Features), strconv.Itoa(len(m.Epochs)), acc,
			})
		}
	}
	return res, nil
}

func (s *Session) execDrop(st *sqlparse.Drop) (*Result, error) {
	name := strings.ToLower(st.Name)
	switch st.What {
	case "table":
		if _, ok := s.tables[name]; !ok {
			return nil, fmt.Errorf("db: unknown table %q", st.Name)
		}
		if err := s.logDrop(storage.WALDropTable, name); err != nil {
			return nil, err
		}
		delete(s.tables, name)
		return &Result{Message: "DROP TABLE"}, nil
	case "model":
		if _, ok := s.models[name]; !ok {
			return nil, fmt.Errorf("db: unknown model %q", st.Name)
		}
		if err := s.logDrop(storage.WALDropModel, name); err != nil {
			return nil, err
		}
		delete(s.models, name)
		return &Result{Message: "DROP MODEL"}, nil
	}
	return nil, fmt.Errorf("db: unsupported DROP %q", st.What)
}

func parseOrder(s string) (data.Order, error) {
	switch strings.ToLower(s) {
	case "clustered":
		return data.OrderClustered, nil
	case "shuffled":
		return data.OrderShuffled, nil
	case "feature", "feature_ordered", "feature-ordered":
		return data.OrderFeature, nil
	}
	return 0, fmt.Errorf("db: unknown order %q (clustered, shuffled, feature)", s)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
