// Package runcache memoises regression runs by content address. A
// regression matrix re-executes the same linked image on the same
// simulated hardware many times across regressions (and, with
// overlapping module selections, within one), yet the deterministic
// platforms — golden, RTL, gate — are pure functions of (image,
// platform kind, hardware config, run bounds): no wall-clock, no
// randomness, no external input. The cache keys each outcome by a
// SHA-256 content address over the inputs that determine them
// (OutcomeKey) and leaves the memoisation itself — singleflight,
// persistent tier, stats — to an internal/core/buildcache Cache
// namespaced "runcache". What this package adds is the outcome's
// on-disk codec, the deep copy every caller receives, and the bypass
// accounting.
//
// Soundness rests on the same release-label invariant as the build
// cache (the paper's Section 3): regressions only run against frozen
// labels, so an image content hash fully determines the program, and a
// platform kind plus hardware config fully determines the machine.
// Anything that breaks run purity bypasses the cache: fault-injection
// harnesses (Spec.NewPlatform), trace callbacks, event streams, and the
// non-deterministic platform rungs (emulator, bondout, silicon, whose
// models carry approximate timing and asynchronous peripherals).
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/core/buildcache"
	"repro/internal/core/telemetry"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// Backend is the persistent second tier, shared with the build cache —
// one on-disk store (internal/core/castore) serves both, keyed by
// their disjoint content-address namespaces.
type Backend = buildcache.Backend

// Cacheable reports whether a platform kind's runs are deterministic
// functions of (image, config, bounds) and may be memoised. The golden
// model, RTL and gate-level simulations qualify; the emulator, bondout
// and product-silicon models do not (approximate timing, asynchronous
// peripheral behaviour).
func Cacheable(k platform.Kind) bool {
	switch k {
	case platform.KindGolden, platform.KindRTL, platform.KindGate:
		return true
	}
	return false
}

// ImageHash content-addresses a linked image: entry point, segment
// addresses and bytes, and BSS geometry — every input that affects
// execution. Symbol and line tables are excluded; they only feed
// tracing.
func ImageHash(img *obj.Image) string {
	h := sha256.New()
	var n [8]byte
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(n[:4], v)
		h.Write(n[:4])
	}
	w32(img.Entry)
	w32(img.BssAddr)
	w32(img.BssSize)
	for _, seg := range img.Segments {
		w32(seg.Addr)
		binary.LittleEndian.PutUint64(n[:], uint64(len(seg.Data)))
		h.Write(n[:])
		h.Write(seg.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// OutcomeKey content-addresses one regression cell without needing the
// built image: the release epoch (the content hash of the frozen module
// environments) pins every source the cell's build reads, and the build
// pipeline is deterministic, so (epoch, module, test, derivative, kind)
// determines the image exactly. Keying on the inputs instead of the
// output is what lets a warm hit skip the build entirely — the run
// cache then subsumes the build cache for memoised cells. HWConfig is a
// flat value struct, so its deterministic %+v rendering is a faithful
// serialisation.
//
// Purity audit — which RunSpec fields are keyed: only the run bounds
// (MaxInstructions, MaxCycles) affect a run's observable outcome.
// RunSpec.Engine is deliberately NOT keyed: every execution engine
// (interpreter, predecode, translate) is bit-identical by contract —
// same final state, counters, and stop reason — so a cached outcome is
// valid for any engine and engines share cache entries. (Engine-divergence
// is tested, not assumed: the golden package's differential fuzz suite
// enforces the contract.) Trace/Events/Context/DebugStops never reach
// the key because traced or cancellable runs bypass the cache entirely.
// Anyone adding a RunSpec field that changes observable results must
// add it to the key.
func OutcomeKey(epoch, module, test, deriv string, k platform.Kind, hw soc.HWConfig, spec platform.RunSpec) string {
	return buildcache.Key(
		epoch, module, test, deriv,
		k.String(),
		fmt.Sprintf("%+v", hw),
		fmt.Sprintf("max-insts=%d max-cycles=%d", spec.MaxInstructions, spec.MaxCycles),
	)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls answered from a completed entry.
	Hits uint64
	// Misses counts Do calls that executed the run.
	Misses uint64
	// Merged counts Do calls that blocked on another caller's in-flight
	// run instead of duplicating it.
	Merged uint64
	// DiskHits counts Do calls answered from the persistent backend
	// instead of simulating.
	DiskHits uint64
	// Bypassed counts runs that skipped the cache: non-deterministic
	// platform kinds, fault-injection harnesses, traced runs.
	Bypassed uint64
	// Entries is the number of cached outcomes (including cached errors).
	Entries int
}

// String renders a one-line summary.
func (s Stats) String() string {
	line := fmt.Sprintf("%d hits, %d misses, %d merged (%.1f%% reuse), %d bypassed, %d entries",
		s.Hits, s.Misses, s.Merged, s.Reuse(), s.Bypassed, s.Entries)
	if s.DiskHits > 0 {
		line += fmt.Sprintf(", %d from store", s.DiskHits)
	}
	return line
}

// Reuse is the percentage of memoisable runs served without simulating
// (hits, singleflight merges, and persistent-store hits), 0 on an
// untouched cache. Bypassed runs are outside the denominator — they
// were never candidates.
func (s Stats) Reuse() float64 {
	return buildcache.Stats{Hits: s.Hits, Misses: s.Misses, Merged: s.Merged, DiskHits: s.DiskHits}.Reuse()
}

// Cache memoises run outcomes under content-address keys: a
// buildcache.Cache does the singleflight and the persistent tier, and
// this wrapper hands every caller its own deep copy. The zero value is
// not usable; call New.
type Cache struct {
	memo     *buildcache.Cache
	metrics  atomic.Pointer[telemetry.Registry]
	bypassed atomic.Uint64
}

// New creates an empty cache.
func New() *Cache {
	return &Cache{memo: buildcache.NewNamed("runcache")}
}

// SetMetrics mirrors the cache counters into a telemetry registry:
// runcache.hits / runcache.misses / runcache.merged /
// runcache.disk_hits / runcache.bypassed counters, a runcache.fill_ns
// histogram over simulation latency, and a runcache.wait_ns histogram
// over time spent blocked on another caller's in-flight run. A nil
// registry detaches.
func (c *Cache) SetMetrics(r *telemetry.Registry) {
	c.memo.SetMetrics(r)
	c.metrics.Store(r)
}

// SetBackend attaches a persistent second tier: on an in-memory miss
// the backend is consulted, and a successful run's result is written
// through, so memoised outcomes survive process restarts and are shared
// between concurrent processes. Errors are never persisted — only
// results that produced a verdict. A nil backend detaches.
func (c *Cache) SetBackend(b Backend) {
	c.memo.SetBackend(b, encodeValue, decodeValue)
}

// persistVersion tags the on-disk result encoding; a decoder that sees
// any other version treats the entry as a miss, so the format can
// evolve without migrations (stale entries simply re-run once).
const persistVersion = 1

// persistedResult is the gob envelope for one stored outcome.
type persistedResult struct {
	V   int
	Res *platform.Result
}

// encodeResult serialises a result for the backend.
func encodeResult(r *platform.Result) ([]byte, bool) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persistedResult{V: persistVersion, Res: r}); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeResult deserialises a backend payload; any decode failure or
// version mismatch reads as a miss.
func decodeResult(data []byte) (*platform.Result, bool) {
	var p persistedResult
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, false
	}
	if p.V != persistVersion || p.Res == nil {
		return nil, false
	}
	return p.Res, true
}

// encodeValue and decodeValue adapt the result codec to the
// buildcache backend seam; a nil result is not persisted.
func encodeValue(v any) ([]byte, bool) {
	r, _ := v.(*platform.Result)
	if r == nil {
		return nil, false
	}
	return encodeResult(r)
}

func decodeValue(data []byte) (any, int64, bool) {
	r, ok := decodeResult(data)
	return r, 0, ok
}

// Bypass records a run that skipped the cache, for the reuse accounting.
func (c *Cache) Bypass() {
	c.bypassed.Add(1)
	c.metrics.Load().Counter("runcache.bypassed").Inc()
}

// clone deep-copies a result so callers can mutate what they receive
// (triage annotations, detail rewrites) without corrupting the cache.
func clone(r *platform.Result) *platform.Result {
	if r == nil {
		return nil
	}
	out := *r
	if r.State != nil {
		st := *r.State
		out.State = &st
	}
	if r.Checkpoints != nil {
		out.Checkpoints = append([]uint32(nil), r.Checkpoints...)
	}
	return &out
}

// Do returns the outcome cached under key, executing run to produce it
// on first use. Concurrent calls for the same key execute run exactly
// once; the others block and share the outcome. Every caller receives
// its own deep copy: the runner gets the result it produced and the
// cache keeps a clone. Errors are cached too: a deterministic platform
// fails identically on every replay. The second return reports whether
// the outcome came from the cache (hit, merged or stored) rather than
// this caller's own execution.
//
// If run panics, the panic propagates to the caller that ran it, any
// waiting callers receive an error, and the entry is dropped so a later
// Do retries.
func (c *Cache) Do(key string, run func() (*platform.Result, error)) (*platform.Result, bool, error) {
	var own *platform.Result
	ran := false
	v, err := c.memo.Do(key, func() (any, int64, error) {
		res, err := run()
		own, ran = res, true
		return clone(res), 0, err
	})
	if ran {
		return own, false, err
	}
	res, _ := v.(*platform.Result)
	return clone(res), true, err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.memo.Stats()
	return Stats{Hits: s.Hits, Misses: s.Misses, Merged: s.Merged,
		DiskHits: s.DiskHits, Bypassed: c.bypassed.Load(), Entries: s.Entries}
}
