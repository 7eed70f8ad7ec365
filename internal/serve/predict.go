package serve

import (
	"fmt"
	"strconv"
	"sync"

	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/sqlparse"
)

// This file is the high-QPS predict path. The batch executor pipeline
// (Scan → Filter → Predict over the simulated device) is the right shape
// for offline evaluation but pays simulated I/O per statement; a serving
// workload re-reads the same table thousands of times. The server instead
// keeps each table's DecodeAll snapshot (no simulated I/O) and evaluates
// the model directly per request — model Predict methods are pure (any
// scratch space lives in a per-call workspace), so concurrent sessions
// share one snapshot with no locking beyond the cache map itself. The
// table decodes each block only once, so refilling a snapshot after an
// INSERT parses just the new blocks; the snapshot itself saves copying
// the tuple headers and checking every block's CRC on each request.

// cachedTable is one decoded table snapshot.
type cachedTable struct {
	tuples []data.Tuple
	task   data.Task
}

// predictCache maps lower-cased table names to decoded snapshots. DDL
// (DROP TABLE, CREATE TABLE) invalidates by name under the catalog write
// lock; model installs don't touch it (tuples don't change when a model
// does).
type predictCache struct {
	mu     sync.Mutex
	tables map[string]*cachedTable
}

func (c *predictCache) get(name string) *cachedTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tables[name]
}

func (c *predictCache) put(name string, t *cachedTable) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[name] = t
}

// invalidate drops one table's snapshot (or all of them for name "").
func (c *predictCache) invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		c.tables = make(map[string]*cachedTable)
		return
	}
	delete(c.tables, name)
}

// execPredict answers a PREDICT statement from the cache. The catalog
// read lock is held only long enough to look up the table and model
// entries (and to decode on a cache miss); scoring runs lock-free.
func (s *Server) execPredict(st *sqlparse.Predict) *Response {
	s.catalog.RLock()
	entry, tok := s.dbs.Table(st.Table)
	m, mok := s.dbs.Model(st.Model)
	s.catalog.RUnlock()
	if !tok {
		return errResponse(ErrNotFound, "unknown table %q", st.Table)
	}
	if !mok {
		return errResponse(ErrNotFound, "unknown model %q", st.Model)
	}

	ct := s.cache.get(entry.Name)
	if ct == nil {
		tuples, err := entry.Table.DecodeAll()
		if err != nil {
			return errResponse(ErrExec, "decode table %q: %v", st.Table, err)
		}
		ct = &cachedTable{tuples: tuples, task: entry.Table.Task()}
		s.cache.put(entry.Name, ct)
	}

	filter := db.CompilePredicate(st.Where)
	resp := &Response{OK: true, Type: "result", Columns: []string{"id", "label", "prediction"}}
	correct, n := 0, 0
	for i := range ct.tuples {
		t := &ct.tuples[i]
		if filter != nil && !filter(t) {
			continue
		}
		pred := m.Model.Predict(m.W, t)
		n++
		if ct.task != data.TaskRegression && (pred >= 0) == (t.Label >= 0) &&
			(ct.task != data.TaskMulticlass || pred == t.Label) {
			correct++
		}
		if st.Limit == 0 || len(resp.Rows) < st.Limit {
			resp.Rows = append(resp.Rows, []string{
				strconv.FormatInt(t.ID, 10),
				fmt.Sprintf("%g", t.Label),
				fmt.Sprintf("%g", pred),
			})
		}
	}
	if ct.task != data.TaskRegression && n > 0 {
		resp.Message = fmt.Sprintf("PREDICT: %d rows, accuracy %.4f", n, float64(correct)/float64(n))
	} else {
		resp.Message = fmt.Sprintf("PREDICT: %d rows", n)
	}
	return resp
}
