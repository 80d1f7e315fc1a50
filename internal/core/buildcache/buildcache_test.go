package buildcache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core/telemetry"
)

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: concatenation collision")
	}
	if Key("x") != Key("x") {
		t.Error("Key is not deterministic")
	}
	if Key("x") == Key("x", "") {
		t.Error("empty trailing part must change the key")
	}
}

func TestHashTreeDeterministic(t *testing.T) {
	a := HashTree(map[string]string{"p1": "c1", "p2": "c2"})
	b := HashTree(map[string]string{"p2": "c2", "p1": "c1"})
	if a != b {
		t.Error("HashTree depends on map iteration order")
	}
	if a == HashTree(map[string]string{"p1": "c1", "p2": "c2x"}) {
		t.Error("content change must change the hash")
	}
	if HashTree(map[string]string{"ab": "c"}) == HashTree(map[string]string{"a": "bc"}) {
		t.Error("path/content boundary is ambiguous")
	}
}

func TestDoCachesValues(t *testing.T) {
	c := New()
	fills := 0
	fill := func() (any, int64, error) { fills++; return 42, 8, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", fill)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoCachesErrors(t *testing.T) {
	c := New()
	fills := 0
	boom := errors.New("boom")
	fill := func() (any, int64, error) { fills++; return nil, 0, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.Do("k", fill); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if fills != 1 {
		t.Errorf("failed fill ran %d times, want 1 (errors are cached)", fills)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New()
	var fills atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		v, err := c.Do("k", func() (any, int64, error) {
			close(started)
			<-release
			fills.Add(1)
			return "v", 1, nil
		})
		if err != nil || v.(string) != "v" {
			t.Errorf("leader Do = %v, %v", v, err)
		}
	}()
	<-started

	const waiters = 9
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("k", func() (any, int64, error) {
				fills.Add(1)
				return "dup", 1, nil
			})
			if err != nil || v.(string) != "v" {
				t.Errorf("waiter Do = %v, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times under contention, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Merged != waiters {
		t.Errorf("stats = %+v, want 1 miss and %d hits+merged", st, waiters)
	}
}

// TestConcurrentOverlappingKeys is the stress test: many builders racing
// over a small overlapping key set must run each key's fill exactly once
// and all observe the same value. Run with -race.
func TestConcurrentOverlappingKeys(t *testing.T) {
	c := New()
	const keys = 20
	const workers = 16
	const opsPerWorker = 200
	var fills [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := (w + i) % keys
				v, err := c.Do(fmt.Sprintf("key-%d", k), func() (any, int64, error) {
					fills[k].Add(1)
					return k * 7, 4, nil
				})
				if err != nil || v.(int) != k*7 {
					t.Errorf("key %d: Do = %v, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := fills[k].Load(); n != 1 {
			t.Errorf("key %d filled %d times, want 1", k, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys || st.Entries != keys {
		t.Errorf("stats = %+v, want %d misses/entries", st, keys)
	}
	if st.Hits+st.Merged+st.Misses != workers*opsPerWorker {
		t.Errorf("stats don't account for every call: %+v", st)
	}
}

func TestPanicInFillPropagatesAndRetries(t *testing.T) {
	c := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic in fill must propagate to the filling caller")
			}
		}()
		c.Do("k", func() (any, int64, error) { panic("kaboom") })
	}()
	// The entry was dropped, so a later Do retries and can succeed.
	v, err := c.Do("k", func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || v.(string) != "ok" {
		t.Errorf("Do after panic = %v, %v, want ok", v, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (panicked entry dropped)", st.Entries)
	}
}

func TestPanicInFillFailsWaiters(t *testing.T) {
	c := New()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do("k", func() (any, int64, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	errc := make(chan error)
	go func() {
		_, err := c.Do("k", func() (any, int64, error) { return "late", 1, nil })
		errc <- err
	}()
	// Only release the panic once the waiter is provably blocked on the
	// in-flight entry, otherwise it would retry with its own fill.
	for c.Stats().Merged == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("waiter err = %v, want aborted", err)
	}
}

// TestWarmHitAllocs pins the memory-tier hit path at zero allocations,
// with and without a telemetry registry attached: the metric names are
// built once per cache, not per call.
func TestWarmHitAllocs(t *testing.T) {
	for _, m := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		c := New()
		c.SetMetrics(m)
		fill := func() (any, int64, error) { return "v", 1, nil }
		c.Do("k", fill)
		if n := testing.AllocsPerRun(100, func() { c.Do("k", fill) }); n != 0 {
			t.Errorf("metrics=%v: warm hit allocates %v times, want 0", m != nil, n)
		}
	}
}

// TestNamespacedMetrics checks that a cache's telemetry lands under its
// own namespace, so the build and run caches sharing one registry keep
// separate counters.
func TestNamespacedMetrics(t *testing.T) {
	r := telemetry.NewRegistry()
	b, o := New(), NewNamed("runcache")
	b.SetMetrics(r)
	o.SetMetrics(r)
	fill := func() (any, int64, error) { return "v", 1, nil }
	b.Do("k", fill)
	o.Do("k", fill)
	o.Do("k", fill)
	for name, want := range map[string]uint64{
		"buildcache.misses": 1, "buildcache.hits": 0,
		"runcache.misses": 1, "runcache.hits": 1,
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Merged: 0, Entries: 1, Bytes: 2048}
	out := s.String()
	for _, want := range []string{"3 hits", "1 misses", "75.0% reuse", "2.0 KiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() = %q, missing %q", out, want)
		}
	}
}

// TestStatsStringZero pins the empty-cache rendering: with no lookups
// the reuse percentage must read 0.0%, never NaN%.
func TestStatsStringZero(t *testing.T) {
	got := Stats{}.String()
	if !strings.Contains(got, "0.0% reuse") || strings.Contains(got, "NaN") {
		t.Errorf("zero stats render %q, want 0.0%% reuse", got)
	}
}
