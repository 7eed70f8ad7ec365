package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocCount reads the process-wide heap allocation count. The ladder
// divides its delta by the tuples a call processed.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler samples the live heap, the bytes the most recent garbage
// collection found reachable, on a fixed period without stopping the world,
// and keeps the maximum. Live bytes after a collection do not depend on
// when collections happen to run, unlike the heap's sawtooth between them,
// so the peak repeats from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stopMiB stops sampling, waits for the sampler to exit, and returns the
// peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// settle runs a full collection so one measurement does not pay for the
// garbage the previous one left.
func settle() { runtime.GC() }
