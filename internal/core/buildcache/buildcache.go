// Package buildcache is a concurrency-safe, content-addressed
// memoisation layer for the ADVM build pipeline. Every cell of a
// regression matrix re-renders the materialised source tree and
// re-assembles the five translation units, yet four of the five depend
// only on (derivative, platform kind, module) and the tree depends only
// on the derivative — so the same artefacts are rebuilt hundreds of
// times per regression. The cache keys each artefact by a SHA-256
// content address (unit source + resolved include closure + sorted
// defines) and deduplicates concurrent builds of the same key with
// singleflight semantics: one worker assembles, the others block on the
// in-flight entry and share the result. The same Cache, namespaced
// "runcache", is the memo behind internal/core/runcache, so this file
// holds the repo's one singleflight and persistent-tier path.
//
// Soundness rests on the release-label invariant of the paper's
// Section 3: a regression only runs against a frozen label, the module
// environments are immutable while the label holds, and the global layer
// is a pure function of the derivative. The epoch (the content hash of
// the frozen environments) is part of every tree key, so a mutated
// system can never observe stale entries.
package buildcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core/telemetry"
)

// Key hashes an ordered list of parts into a content address. Parts are
// length-prefixed so that ("ab","c") and ("a","bc") cannot collide.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashTree hashes a file tree deterministically (sorted path/content
// pairs). The release-label content hashes use the same algorithm, which
// is what lets a frozen label double as a cache epoch.
func HashTree(tree map[string]string) string {
	paths := make([]string, 0, len(tree))
	for p := range tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write([]byte(tree[p]))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Backend is an optional persistent second tier behind the in-memory
// table: a durable byte store keyed by the same content addresses
// (internal/core/castore in production). A miss in memory consults the
// backend before running the fill function; a successful fill is
// written through. Backends must be safe for concurrent use; all three
// methods may be called from any worker.
type Backend interface {
	// Get returns the bytes stored under key, reporting a miss (not an
	// error) for absent or unreadable entries.
	Get(key string) ([]byte, bool)
	// Put stores bytes under key.
	Put(key string, data []byte) error
	// Lock takes the cross-process advisory lock for key and returns
	// the unlock function — the singleflight for same-key writers in
	// other processes. The in-memory table already deduplicates
	// in-process callers.
	Lock(key string) func()
}

// EncodeFunc serialises a cached value for the backend; ok=false means
// the value is not persistable (it is simply kept in memory only).
type EncodeFunc func(v any) ([]byte, bool)

// DecodeFunc deserialises a backend payload back into a cached value
// and its size (the Stats accounting the fill function would have
// reported); ok=false means the payload is unusable and the lookup
// falls through to the fill function.
type DecodeFunc func(data []byte) (v any, size int64, ok bool)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls answered from a completed entry.
	Hits uint64
	// Misses counts Do calls that ran the fill function.
	Misses uint64
	// Merged counts Do calls that blocked on another caller's in-flight
	// fill instead of duplicating it (singleflight deduplication).
	Merged uint64
	// DiskHits counts Do calls answered from the persistent backend
	// instead of running the fill function.
	DiskHits uint64
	// Entries is the number of cached entries (including cached errors).
	Entries int
	// Bytes sums the sizes reported by the fill functions.
	Bytes int64
}

// String renders a one-line summary.
func (s Stats) String() string {
	line := fmt.Sprintf("%d hits, %d misses, %d merged (%.1f%% reuse), %d entries, %.1f KiB cached",
		s.Hits, s.Misses, s.Merged, s.Reuse(), s.Entries, float64(s.Bytes)/1024)
	if s.DiskHits > 0 {
		line += fmt.Sprintf(", %d from store", s.DiskHits)
	}
	return line
}

// Reuse is the percentage of lookups served without running the fill
// function (hits, singleflight merges, and persistent-store hits), 0 on
// an untouched cache.
func (s Stats) Reuse() float64 {
	total := s.Hits + s.Misses + s.Merged + s.DiskHits
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Merged+s.DiskHits) / float64(total) * 100
}

// entry is one cache slot. ready is closed once val/size/err are final.
type entry struct {
	ready chan struct{}
	val   any
	size  int64
	err   error
}

// Cache is a content-addressed memoisation table with singleflight
// semantics. The zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	stats   Stats
	metrics *telemetry.Registry
	backend Backend
	enc     EncodeFunc
	dec     DecodeFunc
	ns      string
	names   metricNames
}

// metricNames are a cache's telemetry names, built once per cache so
// the hit path does not concatenate (and allocate) a name per call.
type metricNames struct {
	hits, misses, merged, diskHits, fillNs, waitNs string
}

// New creates an empty build cache.
func New() *Cache { return NewNamed("buildcache") }

// NewNamed creates an empty cache whose telemetry names and abort
// errors carry the namespace ns ("buildcache", or "runcache" for the
// run-outcome cache built on top of this one).
func NewNamed(ns string) *Cache {
	return &Cache{entries: make(map[string]*entry), ns: ns, names: metricNames{
		hits: ns + ".hits", misses: ns + ".misses", merged: ns + ".merged",
		diskHits: ns + ".disk_hits", fillNs: ns + ".fill_ns", waitNs: ns + ".wait_ns",
	}}
}

// SetMetrics mirrors the cache counters into a telemetry registry under
// the cache's namespace: <ns>.hits / .misses / .merged / .disk_hits
// counters, a <ns>.fill_ns histogram over fill latency, and a
// <ns>.wait_ns histogram over time spent blocked on another caller's
// in-flight fill. Call it before sharing the cache between goroutines;
// a nil registry detaches.
func (c *Cache) SetMetrics(r *telemetry.Registry) {
	c.mu.Lock()
	c.metrics = r
	c.mu.Unlock()
}

// SetBackend attaches a persistent second tier: on an in-memory miss
// the backend is consulted (dec turning its bytes back into a value),
// and a successful fill is written through (enc turning the value into
// bytes). Backend failures degrade to the uncached path — persistence
// is an optimisation, never a correctness dependency. Cached errors
// stay in memory only: a deterministic build failure is cheap to
// re-derive and not worth a disk entry. A nil backend detaches.
func (c *Cache) SetBackend(b Backend, enc EncodeFunc, dec DecodeFunc) {
	c.mu.Lock()
	c.backend, c.enc, c.dec = b, enc, dec
	c.mu.Unlock()
}

// Do returns the value cached under key, running fill to compute it on
// first use. Concurrent calls for the same key run fill exactly once;
// the others block until it completes and share the result. fill returns
// the value, its approximate size in bytes (for Stats accounting), and
// an error. Errors are cached too: the build pipeline is deterministic,
// so a failed build fails identically for every caller and retrying
// would only duplicate the diagnostic work.
//
// With a backend attached, an in-memory miss consults the persistent
// tier first (a DiskHit), then takes the key's cross-process lock,
// re-checks the tier (another process may have filled it while we
// waited), and only then runs fill — whose successful result is written
// through for the next process.
//
// If fill panics, the panic propagates to the caller that ran it, any
// waiting callers receive an error, and the entry is dropped so a later
// Do retries.
func (c *Cache) Do(key string, fill func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	m := c.metrics
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.stats.Hits++
			c.mu.Unlock()
			m.Counter(c.names.hits).Inc()
		default:
			c.stats.Merged++
			c.mu.Unlock()
			m.Counter(c.names.merged).Inc()
			t0 := time.Now()
			<-e.ready
			m.Histogram(c.names.waitNs).Observe(time.Since(t0))
		}
		return e.val, e.err
	}
	e := &entry{ready: make(chan struct{})}
	// Pre-set the failure waiters observe if fill panics out of this call.
	e.err = fmt.Errorf("%s: fill for key %.12s aborted", c.ns, key)
	c.entries[key] = e
	c.stats.Entries++
	backend, enc, dec := c.backend, c.enc, c.dec
	c.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
				c.stats.Entries--
			}
			c.mu.Unlock()
		}
		close(e.ready)
	}()

	// Persistent second tier: a valid stored entry fills the in-memory
	// slot without running fill at all.
	if backend != nil && dec != nil {
		fromStore := func(data []byte) (any, bool) {
			v, n, ok := dec(data)
			if !ok {
				return nil, false
			}
			e.val, e.size, e.err = v, n, nil
			completed = true
			c.mu.Lock()
			c.stats.DiskHits++
			c.stats.Bytes += n
			c.mu.Unlock()
			m.Counter(c.names.diskHits).Inc()
			return v, true
		}
		if data, ok := backend.Get(key); ok {
			if v, ok := fromStore(data); ok {
				return v, nil
			}
		}
		// Same-key writers in other processes serialise on the key's
		// file lock; the lock loser finds the winner's entry on the
		// re-check instead of refilling.
		unlock := backend.Lock(key)
		defer unlock()
		if data, ok := backend.Get(key); ok {
			if v, ok := fromStore(data); ok {
				return v, nil
			}
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	m.Counter(c.names.misses).Inc()
	fillStart := time.Now()
	v, n, err := fill()
	m.Histogram(c.names.fillNs).Observe(time.Since(fillStart))
	e.val, e.size, e.err = v, n, err
	completed = true
	c.mu.Lock()
	c.stats.Bytes += n
	c.mu.Unlock()
	if err == nil && backend != nil && enc != nil {
		if data, ok := enc(v); ok {
			backend.Put(key, data)
		}
	}
	return e.val, e.err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
