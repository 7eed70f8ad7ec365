package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into the
// program's layers. Spans stay in memory until write, so recording costs
// two clock reads and an append under a mutex. A nil *tracer records
// nothing: untraced runs pass nil and pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []spanRec
	nextID int64
}

// spanRec is one recorded span. The benchmark's calls into the program do
// not nest, so each span is one whole request and its ID identifies it.
type spanRec struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// span is an open span; end closes it.
type span struct {
	t     *tracer
	id    int64
	start time.Time
	name  string
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named after the layer function the benchmark is
// about to call.
func (t *tracer) begin(name string) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return span{t: t, id: id, start: time.Now(), name: name}
}

// end records the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRec{
		ID: s.id, Name: s.name,
		StartNs: s.start.Sub(s.t.origin).Nanoseconds(),
		EndNs:   end.Sub(s.t.origin).Nanoseconds(),
	})
	s.t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
