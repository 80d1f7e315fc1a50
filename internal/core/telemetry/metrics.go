package telemetry

// The metrics registry: named counters, gauges, and latency histograms,
// safe for concurrent use by regression workers, the build cache's
// singleflight fills, and the assembler. Instruments are created on
// first use and live for the registry's lifetime; reads are atomic, so
// the hot-path cost of an armed counter is one atomic add.

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. All methods are no-ops
// on a nil counter, so instruments fetched from a nil registry need no
// guards at the call site.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. Methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Latency histograms are log-linear: every power-of-two band is split
// into histSub equal sub-buckets, so a bucket is never wider than 1/8 of
// its lower bound. Values below 2*histSub nanoseconds get a bucket each;
// the last bucket ends at the largest int64.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (63-histSubBits)*histSub + histSub
)

// histBucket returns the bucket index of an observation.
func histBucket(nanos uint64) int {
	if nanos < 2*histSub {
		return int(nanos)
	}
	shift := bits.Len64(nanos) - 1 - histSubBits
	return (shift+1)*histSub + int(nanos>>shift) - histSub
}

// histUpper returns the largest value bucket i holds.
func histUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	lower := uint64(histSub+i%histSub) << shift
	return int64(lower + 1<<shift - 1)
}

// Histogram is a latency histogram over log-linear nanosecond buckets.
// Observations are lock-free.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one latency. Methods are nil-safe.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(d.Nanoseconds()) }

// ObserveNanos records one latency in nanoseconds.
func (h *Histogram) ObserveNanos(nanos int64) {
	if h == nil {
		return
	}
	if nanos < 0 {
		nanos = 0
	}
	h.buckets[histBucket(uint64(nanos))].Add(1)
	h.count.Add(1)
	h.sum.Add(nanos)
	for {
		cur := h.max.Load()
		if nanos <= cur || h.max.CompareAndSwap(cur, nanos) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumNanos reports the summed latency.
func (h *Histogram) SumNanos() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// MaxNanos reports the largest observation.
func (h *Histogram) MaxNanos() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// MeanNanos reports the average latency.
func (h *Histogram) MeanNanos() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// QuantileNanos approximates the q-quantile (0 < q <= 1) as the largest
// value of the bucket holding the q-th observation, clamped to the
// largest observation: never below the true order statistic, and at
// most 12.5% above it.
func (h *Histogram) QuantileNanos(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	max := h.max.Load()
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return min(histUpper(i), max)
		}
	}
	return max
}

// Registry is a concurrency-safe collection of named instruments. The
// zero value is not usable; call NewRegistry. A nil *Registry is safe to
// pass around: the instrument getters on a nil registry return nil, and
// all instrument methods are nil-safe no-ops, so call sites need no
// guards.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the exported view of one histogram.
type HistogramSnapshot struct {
	Count     uint64  `json:"count"`
	SumNanos  int64   `json:"sum_nanos"`
	MeanNanos float64 `json:"mean_nanos"`
	P50Nanos  int64   `json:"p50_nanos"`
	P90Nanos  int64   `json:"p90_nanos"`
	P99Nanos  int64   `json:"p99_nanos"`
	MaxNanos  int64   `json:"max_nanos"`
}

// Snapshot is a point-in-time copy of every instrument.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Safe while writers are active; each
// instrument is read atomically.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Count:     h.Count(),
			SumNanos:  h.SumNanos(),
			MeanNanos: h.MeanNanos(),
			P50Nanos:  h.QuantileNanos(0.50),
			P90Nanos:  h.QuantileNanos(0.90),
			P99Nanos:  h.QuantileNanos(0.99),
			MaxNanos:  h.MaxNanos(),
		}
	}
	return s
}

// WriteJSON renders the registry as indented JSON with deterministic
// (sorted) key order.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names lists every instrument name, sorted, for summaries.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
