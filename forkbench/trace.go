package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// layers are the span-name prefixes a traced run attributes self time
// to; any other prefix counts as the benchmark's own ("bench").
var layers = map[string]bool{
	"sim": true, "analysis": true, "export": true, "live": true, "feed": true,
	"chain": true, "db": true, "p2p": true, "rpc": true, "serve": true,
}

// span is one traced interval. Calls > 0 marks an aggregated span: that
// many callbacks of one simulated day, laid end to end from the day's
// first call, so memory stays bounded however many blocks a day holds.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Calls  int     `json:"calls,omitempty"`
}

// tracer records spans relative to its creation. A nil *tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0).Seconds()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// add records a finished span under parent (callbacks on other
// goroutines and aggregated per-day spans use it).
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration, calls int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := start.Sub(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: id, Name: name, Start: s, End: s + d.Seconds(), Parent: parent, Calls: calls})
	return id
}

// current returns the innermost open span.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 && layers[name[:i]] {
		return name[:i]
	}
	return "bench"
}

// selfTimes returns each layer's self time: its spans' durations minus
// the time their child spans cover (clamped at zero where concurrent
// children overlap their parent).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{"bench": 0}
	for l := range layers {
		out[l] = 0
	}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += math.Max(0, s.End-s.Start-child[i])
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// hist is a fixed-size log-bucketed histogram of durations: 16 buckets
// per power of two, so a quantile reads within ~4% and memory stays
// constant however many calls it counts. Safe for concurrent use.
type hist struct {
	n       atomic.Int64
	buckets [64 * 16]atomic.Int64
}

func bucketOf(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ns in [2^e, 2^(e+1))
	m := int(ns>>(e-4)) & 15        // next four bits
	return e*16 + m
}

func bucketValue(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e, m := b/16, b%16
	lo := math.Ldexp(1, e) * (1 + float64(m)/16)
	return lo * (1 + 1.0/32) // bucket midpoint
}

func (h *hist) observe(d time.Duration) {
	h.n.Add(1)
	h.buckets[bucketOf(int64(d))].Add(1)
}

// quantileUS returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUS(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := range h.buckets {
		seen += h.buckets[b].Load()
		if seen >= rank {
			return bucketValue(b) / 1e3
		}
	}
	return bucketValue(len(h.buckets)-1) / 1e3
}

// percentile is the nearest-rank q-quantile of samples (0 when empty).
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
