package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingBoundedOverwrite(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: EvInstRetired, PC: uint32(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := uint32(6 + i); e.PC != want {
			t.Errorf("event %d pc = %d, want %d (oldest-first order)", i, e.PC, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Error("reset did not empty the ring")
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{PC: 1})
	r.Emit(Event{PC: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].PC != 1 || evs[1].PC != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", r.Dropped())
	}
}

func TestEventMask(t *testing.T) {
	if !EventMask(0).Effective().Has(EvUARTByte) {
		t.Error("zero mask must be effective-all")
	}
	m, err := ParseKinds("inst,mem,irq")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []EventKind{EvInstRetired, EvMemRead, EvMemWrite, EvIRQEnter, EvIRQExit} {
		if !m.Has(k) {
			t.Errorf("mask missing %s", k)
		}
	}
	for _, k := range []EventKind{EvRegWrite, EvTrap, EvUARTByte} {
		if m.Has(k) {
			t.Errorf("mask should not include %s", k)
		}
	}
	if _, err := ParseKinds("bogus"); err == nil {
		t.Error("unknown kind must be rejected")
	}
	if m, _ := ParseKinds("all"); m != MaskAll {
		t.Error("'all' must select everything")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EvRegWrite, PC: 0x100, Reg: 3, Value: 0xAB}
	if s := e.String(); !strings.Contains(s, "d3") || !strings.Contains(s, "0x000000ab") {
		t.Errorf("event string: %s", s)
	}
	if RegName(16) != "a0" || RegName(RegPSW) != "psw" {
		t.Error("register naming wrong")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("cells").Inc()
				r.Histogram("lat").ObserveNanos(int64(i))
				r.Gauge("g").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("cells").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Set(9)
	r.Histogram("z").Observe(time.Millisecond)
	if r.Counter("x").Value() != 0 || r.Histogram("z").Count() != 0 {
		t.Error("nil registry must report zeros")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.ObserveNanos(1000) // bucket [960,1023]: band [512,1024) in eighths
	}
	h.ObserveNanos(1 << 20)
	if p50 := h.QuantileNanos(0.5); p50 != 1023 {
		t.Errorf("p50 = %d, want 1023", p50)
	}
	if p100 := h.QuantileNanos(1); p100 != 1<<20 {
		t.Errorf("p100 = %d, want the max %d", p100, 1<<20)
	}
	if max := h.MaxNanos(); max != 1<<20 {
		t.Errorf("max = %d", max)
	}
	if mean := h.MeanNanos(); mean < 1000 || mean > 12000 {
		t.Errorf("mean = %f", mean)
	}
}

// TestHistogramQuantileAccuracy: on skewed latency samples spanning
// nanoseconds to seconds, p50/p90/p99 never fall below the true order
// statistic and never exceed it by more than 12.5%.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 504, 10000} {
		h := &Histogram{}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(math.Exp(rng.Float64() * 21)) // 1 ns .. ~1.3 s
			h.ObserveNanos(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.50, 0.90, 0.99} {
			rank := max(int(q*float64(n)), 1)
			want, got := vals[rank-1], h.QuantileNanos(q)
			if got < want || float64(got-want) > 0.125*float64(want) {
				t.Errorf("n=%d p%.0f = %d, true order statistic %d (off by more than 12.5%%)", n, q*100, got, want)
			}
		}
	}
	// Every bucket's largest value maps back to that bucket, and the next
	// value starts the next one.
	for i := 0; i < histBuckets-1; i++ {
		up := histUpper(i)
		if histBucket(uint64(up)) != i || histBucket(uint64(up)+1) != i+1 {
			t.Fatalf("bucket %d: upper %d maps to %d, upper+1 to %d", i, up, histBucket(uint64(up)), histBucket(uint64(up)+1))
		}
	}
	if up := histUpper(histBuckets - 1); up != math.MaxInt64 || histBucket(uint64(up)) != histBuckets-1 {
		t.Errorf("last bucket ends at %d, want the largest int64", up)
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Add(2)
	r.Counter("a_count").Add(1)
	r.Histogram("lat").ObserveNanos(5000)
	var one, two strings.Builder
	if err := r.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("registry JSON must be deterministic")
	}
	var parsed Snapshot
	if err := json.Unmarshal([]byte(one.String()), &parsed); err != nil {
		t.Fatalf("registry JSON does not parse: %v", err)
	}
	if parsed.Counters["a_count"] != 1 || parsed.Counters["b_count"] != 2 {
		t.Errorf("snapshot round-trip: %+v", parsed)
	}
}

func TestTimelineChromeTrace(t *testing.T) {
	tl := NewTimeline()
	tl.NameLane(0, "worker-0")
	start := tl.Start()
	tl.Span("build NVM/T1", "build", 0, start, 3*time.Millisecond,
		map[string]any{"deriv": "SC88-A"})
	tl.Span("run NVM/T1", "run", 0, start.Add(3*time.Millisecond), time.Millisecond, nil)
	tl.Instant("triage", "triage", 0, nil)
	var sb strings.Builder
	if err := tl.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
		if e["pid"].(float64) != 1 {
			t.Error("pid must be 1")
		}
	}
	if phases["X"] != 2 || phases["M"] != 1 || phases["i"] != 1 {
		t.Errorf("phases = %v", phases)
	}
	// The span must carry its duration in microseconds.
	for _, e := range doc.TraceEvents {
		if e["name"] == "build NVM/T1" {
			if dur := e["dur"].(float64); dur < 2999 || dur > 3001 {
				t.Errorf("dur = %f us, want ~3000", dur)
			}
		}
	}
}

func TestNilTimelineSafe(t *testing.T) {
	var tl *Timeline
	tl.Span("x", "c", 0, time.Now(), time.Second, nil)
	tl.Instant("y", "c", 0, nil)
	tl.NameLane(0, "w")
	var sb strings.Builder
	if err := tl.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Error("nil timeline must still render an empty trace")
	}
}

func TestSinkFunc(t *testing.T) {
	n := 0
	var s EventSink = SinkFunc(func(Event) bool { n++; return n < 3 })
	for i := 0; i < 5; i++ {
		if !s.Emit(Event{}) {
			break
		}
	}
	if n != 3 {
		t.Errorf("sink called %d times, want 3 (stop honoured)", n)
	}
}
