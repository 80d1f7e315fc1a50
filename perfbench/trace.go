package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/journal"
	"repro/internal/core/sysenv"
)

// span is one timed interval at a layer boundary. Times are Unix
// nanoseconds so spans recorded in the served workers' processes line
// up with the benchmark's own.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanIDs is process-wide so spans of every recorder in a process stay
// distinct when they are written out together. It starts at the process
// ID shifted clear of any count, so spans the served workers record
// never collide with the benchmark process's own.
var spanIDs atomic.Int64

func init() { spanIDs.Store(int64(os.Getpid()) << 32) }

// recorder keeps spans and counts in memory. Counts are recorded at the
// same boundaries as the spans, so ratios are measured where the work
// happens. Safe for concurrent use: matrix workers call the wrapped
// seams from their own goroutines.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	// root is the ID of the span the recorder's phases hang under (one
	// traced matrix, one replay, one served job).
	root int64
	// phase is the parent of spans recorded by seams that cannot tell
	// which cell called them: the store and persist wrappers run under
	// two concurrent workers, so their spans hang under the phase that
	// was running (regress.run, shard.regress, ...).
	phase atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{counts: make(map[string]float64), root: spanIDs.Add(1)}
	r.phase.Store(r.root)
	return r
}

// record stores a finished span. id may be preallocated with
// spanIDs.Add(1) so children can name their parent before the parent
// ends; 0 allocates one.
func (r *recorder) record(id, parent int64, name, cell string, start, end time.Time) {
	if id == 0 {
		id = spanIDs.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: start.UnixNano(), End: end.UnixNano()})
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// time runs f as a span under the recorder's root; while f runs, it is
// the phase seam spans hang under. On a nil recorder (an untraced
// matrix) it just runs f.
func (r *recorder) time(name string, f func()) {
	if r == nil {
		f()
		return
	}
	id := spanIDs.Add(1)
	r.phase.Store(id)
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.phase.Store(r.root)
	r.record(id, r.root, name, "", t0, t1)
}

// selfTimes sums each span name's self time: its duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coveredNs(children[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to [lo, hi]. Children of one parent overlap when two matrix
// workers call the same seam at once.
func coveredNs(kids []span, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// storeTrace decorates the castore.Store handed to both caches'
// SetBackend (and to served workers through WorkerOptions.Store).
type storeTrace struct {
	inner buildcache.Backend
	rec   *recorder
	// classify, when set, is told the payload of every hit and put so
	// served workers can split the shared store traffic between the
	// build and run caches.
	classify func(op string, data []byte)
}

func (s *storeTrace) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.inner.Get(key)
	s.rec.record(0, s.rec.phase.Load(), "castore.get", "", t0, time.Now())
	s.rec.add("castore.gets", 1)
	if ok {
		s.rec.add("castore.get_hits", 1)
		s.rec.add("castore.read_bytes", float64(len(data)))
		if s.classify != nil {
			s.classify("hit", data)
		}
	}
	return data, ok
}

func (s *storeTrace) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(key, data)
	s.rec.record(0, s.rec.phase.Load(), "castore.put", "", t0, time.Now())
	s.rec.add("castore.puts", 1)
	s.rec.add("castore.written_bytes", float64(len(data)))
	if s.classify != nil {
		s.classify("put", data)
	}
	return err
}

// Lock times lock acquisition only; the critical section it guards is
// the fill, which the other layers account for.
func (s *storeTrace) Lock(key string) func() {
	t0 := time.Now()
	unlock := s.inner.Lock(key)
	s.rec.record(0, s.rec.phase.Load(), "castore.lock", "", t0, time.Now())
	s.rec.add("castore.locks", 1)
	return unlock
}

// persistCodecs wraps sysenv.PersistEncode/PersistDecode.
func persistCodecs(rec *recorder) (buildcache.EncodeFunc, buildcache.DecodeFunc) {
	enc := func(v any) ([]byte, bool) {
		t0 := time.Now()
		data, ok := sysenv.PersistEncode(v)
		rec.record(0, rec.phase.Load(), "sysenv.persist_encode", "", t0, time.Now())
		return data, ok
	}
	dec := func(data []byte) (any, int64, bool) {
		t0 := time.Now()
		v, n, ok := sysenv.PersistDecode(data)
		rec.record(0, rec.phase.Load(), "sysenv.persist_decode", "", t0, time.Now())
		return v, n, ok
	}
	return enc, dec
}

// sinkTrace decorates the matrix's journal sink. It times every Emit,
// counts records, and turns each cell's start..outcome records into a
// cell span, which is the one per-cell boundary visible from outside
// regress.Run.
type sinkTrace struct {
	inner journal.Sink
	rec   *recorder
	mu    sync.Mutex
	open  map[string]time.Time
}

func (s *sinkTrace) Emit(r journal.Record) {
	t0 := time.Now()
	s.inner.Emit(r)
	t1 := time.Now()
	s.rec.record(0, s.rec.phase.Load(), "journal.emit", "", t0, t1)
	s.rec.add("journal.records", 1)
	switch r.Kind {
	case journal.KindStart:
		s.mu.Lock()
		if _, ok := s.open[r.CellID()]; !ok {
			s.open[r.CellID()] = t0
		}
		s.mu.Unlock()
	case journal.KindOutcome:
		s.mu.Lock()
		start, ok := s.open[r.CellID()]
		delete(s.open, r.CellID())
		s.mu.Unlock()
		if ok {
			s.rec.record(0, s.rec.phase.Load(), "regress.cell", r.CellID(), start, t0)
		}
	}
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w     io.Writer
	bytes atomic.Int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// lineReader passes reads through and shows onLine every complete line
// read: the served worker learns from it which job it is running.
type lineReader struct {
	r       io.Reader
	onLine  func(line []byte)
	partial []byte
}

func (l *lineReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	l.partial = append(l.partial, p[:n]...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		l.onLine(l.partial[:i])
		l.partial = l.partial[i+1:]
	}
	return n, err
}

// listenerTrace decorates the net.Listener passed to Daemon.Serve:
// every accepted connection's bytes and frames, in both directions,
// land in shared counters.
type listenerTrace struct {
	net.Listener
	bytes, frames atomic.Int64
}

func (l *listenerTrace) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &connTrace{Conn: c, l: l}, nil
}

type connTrace struct {
	net.Conn
	l *listenerTrace
}

func (c *connTrace) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	c.l.frames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

func (c *connTrace) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	c.l.frames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// runtimeSample reads the Go runtime's allocation and GC totals; the
// traced run reads it at matrix boundaries and reports deltas.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, assistCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), assistCPU: v(3), totalCPU: v(4)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.assistCPU - b.assistCPU, a.totalCPU - b.totalCPU}
}

// writeSpans writes every recorder's spans as one JSON document.
func writeSpans(path string, recs []*recorder) error {
	var all []span
	for _, r := range recs {
		r.mu.Lock()
		all = append(all, r.spans...)
		r.mu.Unlock()
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
