package journal

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// record builds the canonical little journal the tests share: a two-cell
// run with a retry, a cache hit, a breaker trip and a clean end record.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindHeader, Version: Version, Label: "rel-1", Epoch: "e1", Workers: 2, Cells: 3, Engine: "advm"},
		{Kind: KindSchedule, Module: "alu", Test: "smoke", Deriv: "base", Platform: "golden"},
		{Kind: KindSchedule, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl"},
		{Kind: KindSchedule, Module: "mul", Test: "smoke", Deriv: "base", Platform: "golden"},
		{Kind: KindStart, Module: "alu", Test: "smoke", Deriv: "base", Platform: "golden", Attempt: 1},
		{Kind: KindOutcome, Module: "alu", Test: "smoke", Deriv: "base", Platform: "golden", Attempt: 1,
			Status: StatusPassed, Reason: "halt", Cycles: 100, BuildNs: 10, RunNs: 500},
		{Kind: KindStart, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl", Attempt: 1},
		{Kind: KindRetry, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl", Attempt: 1,
			Class: "transient", BackoffNs: 1000},
		{Kind: KindBreaker, Platform: "rtl", From: "closed", To: "open"},
		{Kind: KindStart, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl", Attempt: 2},
		{Kind: KindOutcome, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl", Attempt: 2,
			Status: StatusFlaky, Reason: "halt", Cycles: 100, BuildNs: 20, RunNs: 900},
		{Kind: KindCacheHit, Module: "mul", Test: "smoke", Deriv: "base", Platform: "golden"},
		{Kind: KindOutcome, Module: "mul", Test: "smoke", Deriv: "base", Platform: "golden", Attempt: 1,
			Status: StatusPassed, Reason: "halt", Cached: true},
		{Kind: KindTriage, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl", Ref: "diverged @ pc=4"},
		{Kind: KindRuntime, Goroutines: 8, HeapBytes: 1 << 20, GCPauseNs: 1234},
		{Kind: KindEnd, Passed: 2, Failed: 1, Flaky: 1, WallNs: 999,
			BuildHits: 1, BuildMiss: 2, RunHits: 1, RunMiss: 2},
	}
}

func TestWriterRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRecords() {
		w.Emit(r)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, want := w.Count(), uint64(len(sampleRecords())); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(recs) != len(sampleRecords()) {
		t.Fatalf("read %d records, want %d", len(recs), len(sampleRecords()))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	if recs[0].Kind != KindHeader || recs[0].Label != "rel-1" {
		t.Fatalf("header = %+v", recs[0])
	}
	if id := recs[5].CellID(); id != "alu/smoke@base/golden" {
		t.Fatalf("CellID = %q", id)
	}
}

func TestWriterConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	const emitters, per = 8, 50
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Emit(Record{Kind: KindStart, Module: "m", Test: "t", Deriv: "d", Platform: "golden"})
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read after concurrent emit: %v", err)
	}
	if len(recs) != emitters*per {
		t.Fatalf("read %d records, want %d", len(recs), emitters*per)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate Seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestNilWriterAndTee(t *testing.T) {
	var w *Writer
	w.Emit(Record{Kind: KindHeader}) // must not panic
	if w.Count() != 0 {
		t.Fatal("nil writer Count != 0")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}

	var got []Record
	sink := Tee(nil, SinkFunc(func(r Record) { got = append(got, r) }), nil)
	sink.Emit(Record{Kind: KindEnd})
	if len(got) != 1 || got[0].Kind != KindEnd {
		t.Fatalf("tee delivered %v", got)
	}
	Tee(nil, nil).Emit(Record{Kind: KindEnd}) // zero live sinks: no-op
}

func TestMaskStripsVolatileFields(t *testing.T) {
	var a, b bytes.Buffer
	for i, buf := range []*bytes.Buffer{&a, &b} {
		w := NewWriter(buf)
		for _, r := range sampleRecords() {
			// Perturb the wall-clock-ish fields between the two runs: Mask
			// must make them identical anyway.
			r.BuildNs += int64(i * 7)
			r.RunNs += int64(i * 13)
			r.BackoffNs += int64(i * 3)
			r.WallNs += int64(i * 17)
			r.Goroutines += int64(i)
			r.HeapBytes += int64(i * 4096)
			r.GCPauseNs += int64(i)
			if r.Kind == KindHeader {
				r.Wall = map[bool]string{false: "2026-01-01T00:00:00Z", true: "2026-01-02T09:30:00Z"}[i == 1]
			}
			w.Emit(r)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	ma, err := Mask(a.Bytes())
	if err != nil {
		t.Fatalf("Mask: %v", err)
	}
	mb, err := Mask(b.Bytes())
	if err != nil {
		t.Fatalf("Mask: %v", err)
	}
	if !bytes.Equal(ma, mb) {
		t.Fatalf("masked journals differ:\n%s\n--- vs ---\n%s", ma, mb)
	}
	if bytes.Contains(ma, []byte(`"t_ns"`)) || bytes.Contains(ma, []byte(`"run_ns"`)) ||
		bytes.Contains(ma, []byte(`"wall"`)) || bytes.Contains(ma, []byte(`"heap_bytes"`)) {
		t.Fatalf("masked journal still contains volatile keys:\n%s", ma)
	}
	// Deterministic payloads survive.
	if !bytes.Contains(ma, []byte(`"label":"rel-1"`)) || !bytes.Contains(ma, []byte(`"cycles":100`)) {
		t.Fatalf("masked journal lost deterministic payload:\n%s", ma)
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(sampleRecords())
	if a.Header.Label != "rel-1" || !a.HasEnd {
		t.Fatalf("header/end = %+v / %v", a.Header, a.HasEnd)
	}
	if len(a.Schedule) != 3 || a.Schedule[0] != "alu/smoke@base/golden" {
		t.Fatalf("schedule = %v", a.Schedule)
	}
	passed, failed, broken, flaky := a.Counts()
	if passed != 2 || failed != 1 || broken != 0 || flaky != 1 {
		t.Fatalf("counts = %d/%d/%d/%d", passed, failed, broken, flaky)
	}
	if a.CacheHits != 1 || len(a.Retries) != 1 || len(a.Breakers) != 1 {
		t.Fatalf("cache/retries/breakers = %d/%d/%d", a.CacheHits, len(a.Retries), len(a.Breakers))
	}
	if ref := a.TriageRefs["alu/smoke@base/rtl"]; ref != "diverged @ pc=4" {
		t.Fatalf("triage ref = %q", ref)
	}
	if a.MaxGoroutines != 8 || a.MaxGCPauseNs != 1234 {
		t.Fatalf("runtime peaks = %d goroutines, %d gc pause", a.MaxGoroutines, a.MaxGCPauseNs)
	}

	lanes := a.Lanes()
	if len(lanes) != 2 || lanes[0].Platform != "rtl" {
		t.Fatalf("lanes = %+v", lanes)
	}
	if lanes[0].Retries != 1 || lanes[0].Flaky != 1 {
		t.Fatalf("rtl lane = %+v", lanes[0])
	}

	slow := a.Slowest(5)
	// The cached outcome is excluded: two live outcomes, rtl first.
	if len(slow) != 2 || slow[0].Platform != "rtl" {
		t.Fatalf("slowest = %+v", slow)
	}

	storms := a.RetryStorms()
	if len(storms) != 1 || storms[0].Attempts != 2 || storms[0].BackoffNs != 1000 {
		t.Fatalf("storms = %+v", storms)
	}

	if cs := a.CacheSummary(); !strings.Contains(cs, "build 1/3") || !strings.Contains(cs, "run 1/3") {
		t.Fatalf("cache summary = %q", cs)
	}
}

func TestTrendVs(t *testing.T) {
	prev := Analyze(sampleRecords())
	// Current run: the rtl cell recovered, the mul golden cell regressed.
	cur := Analyze([]Record{
		{Kind: KindHeader, Label: "rel-1"},
		{Kind: KindOutcome, Module: "alu", Test: "smoke", Deriv: "base", Platform: "golden", Status: StatusPassed, RunNs: 400},
		{Kind: KindOutcome, Module: "alu", Test: "smoke", Deriv: "base", Platform: "rtl", Status: StatusPassed, RunNs: 800},
		{Kind: KindOutcome, Module: "mul", Test: "smoke", Deriv: "base", Platform: "golden", Status: StatusFailed},
		{Kind: KindEnd},
	})
	tr := cur.TrendVs(prev)
	if !tr.SameLabel {
		t.Fatal("labels match, SameLabel = false")
	}
	if len(tr.Regressed) != 1 || tr.Regressed[0] != "mul/smoke@base/golden" {
		t.Fatalf("regressed = %v", tr.Regressed)
	}
	if len(tr.Recovered) != 1 || tr.Recovered[0] != "alu/smoke@base/rtl" {
		t.Fatalf("recovered = %v", tr.Recovered)
	}
	if len(tr.Rows) != 2 {
		t.Fatalf("rows = %+v", tr.Rows)
	}
}

func TestWriteTextAndHTML(t *testing.T) {
	a := Analyze(sampleRecords())
	est := func(cellID string) (int64, int, bool) {
		if cellID == "alu/smoke@base/rtl" {
			return 850, 4, true
		}
		return 0, 0, false
	}

	var text bytes.Buffer
	if err := WriteText(&text, a, ReportOptions{Top: 10, Estimate: est}); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := text.String()
	for _, want := range []string{"rel-1", "rtl", "alu/smoke@base/rtl", "retry", "diverged @ pc=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}

	var html bytes.Buffer
	if err := WriteHTML(&html, a, ReportOptions{Top: 10, Estimate: est}); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	h := html.String()
	for _, want := range []string{"<html", "rel-1", "alu/smoke@base/rtl", "</html>"} {
		if !strings.Contains(h, want) {
			t.Fatalf("html report missing %q", want)
		}
	}

	// Trend section renders when Prev is supplied.
	prev := Analyze(sampleRecords())
	var withTrend bytes.Buffer
	if err := WriteText(&withTrend, a, ReportOptions{Prev: prev}); err != nil {
		t.Fatalf("WriteText with trend: %v", err)
	}
	if !strings.Contains(withTrend.String(), "trend") {
		t.Fatalf("trend section missing:\n%s", withTrend.String())
	}
}

func TestProgressBoard(t *testing.T) {
	var status, logs bytes.Buffer
	p := NewProgress(&status)
	p.SetLogWriter(&logs)
	p.SetEstimator(func(module, test, deriv, platform string) (int64, bool) {
		return 1_000_000_000, true // 1s per cell
	})
	for _, r := range sampleRecords() {
		p.Emit(r)
	}
	p.Logf("FAIL %s: %s", "alu/smoke@base/rtl", "diverged")
	p.Done()
	p.Done() // idempotent

	s := status.String()
	if !strings.Contains(s, "3/3") {
		t.Fatalf("status line missing done/total:\n%q", s)
	}
	if !strings.Contains(s, "pass 2 fail 1") {
		t.Fatalf("status line missing verdicts:\n%q", s)
	}
	if !strings.Contains(s, "flaky 1") || !strings.Contains(s, "retries 1") || !strings.Contains(s, "cached 1") {
		t.Fatalf("status line missing counters:\n%q", s)
	}
	if !strings.Contains(s, "\r\x1b[K") {
		t.Fatalf("status output is not in-place redraw:\n%q", s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Fatalf("Done did not end the status line:\n%q", s)
	}
	// Logf lines land on the log writer, not the status stream.
	if got := logs.String(); got != "FAIL alu/smoke@base/rtl: diverged\n" {
		t.Fatalf("log stream = %q", got)
	}
	if strings.Contains(s, "FAIL") {
		t.Fatalf("log line leaked into status stream:\n%q", s)
	}
}

func TestReadRejectsMalformedLine(t *testing.T) {
	_, err := Read(strings.NewReader("{\"kind\":\"header\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestMaskDropsExecutionShape(t *testing.T) {
	// Two journals of the same frozen spec, one serial and one sharded:
	// different seq numbering, worker counts, runtime-sample cadence,
	// and cache totals, same cells. They must mask identically.
	serial := `{"kind":"header","seq":1,"t_ns":10,"version":1,"label":"rel-1","epoch":"e1","workers":1,"cells":1}
{"kind":"schedule","seq":2,"module":"ES1","test":"t1","deriv":"SC88-A","platform":"golden"}
{"kind":"runtime","seq":3,"goroutines":8,"heap_bytes":1000}
{"kind":"start","seq":4,"module":"ES1","test":"t1","deriv":"SC88-A","platform":"golden","attempt":1}
{"kind":"outcome","seq":5,"module":"ES1","test":"t1","deriv":"SC88-A","platform":"golden","attempt":1,"status":"passed","reason":"halt","cycles":100,"insts":50}
{"kind":"end","seq":6,"passed":1,"wall_ns":999,"build_hits":12,"build_misses":3,"run_hits":1}
`
	sharded := `{"kind":"header","seq":1,"t_ns":77,"version":1,"label":"rel-1","epoch":"e1","workers":4,"cells":1}
{"kind":"schedule","seq":2,"module":"ES1","test":"t1","deriv":"SC88-A","platform":"golden"}
{"kind":"start","seq":3,"module":"ES1","test":"t1","deriv":"SC88-A","platform":"golden","attempt":1}
{"kind":"outcome","seq":4,"module":"ES1","test":"t1","deriv":"SC88-A","platform":"golden","attempt":1,"status":"passed","reason":"halt","cycles":100,"insts":50}
{"kind":"end","seq":5,"passed":1,"wall_ns":123}
`
	m1, err := Mask([]byte(serial))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Mask([]byte(sharded))
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatalf("serial and sharded journals mask differently:\n%s\n--- vs ---\n%s", m1, m2)
	}
	if strings.Contains(string(m1), "runtime") {
		t.Fatal("runtime record survived the mask")
	}
	for _, key := range []string{`"seq"`, `"workers"`, `"build_hits"`, `"run_hits"`} {
		if strings.Contains(string(m1), key) {
			t.Fatalf("masked journal still carries %s:\n%s", key, m1)
		}
	}
	// The spec-determined payload survives.
	for _, key := range []string{`"label":"rel-1"`, `"cycles":100`, `"status":"passed"`} {
		if !strings.Contains(string(m1), key) {
			t.Fatalf("masked journal lost %s:\n%s", key, m1)
		}
	}
}

// TestMaskCanonicalOrder: a journal written in completion order — two
// workers interleaving their cells' records — masks to the same bytes
// as the serial journal, with each cell's records grouped in schedule
// order and the run-level records last.
func TestMaskCanonicalOrder(t *testing.T) {
	serial := `{"kind":"header","seq":1,"label":"rel-1","workers":1,"cells":2}
{"kind":"schedule","seq":2,"module":"A","test":"t2","deriv":"d","platform":"golden"}
{"kind":"schedule","seq":3,"module":"A","test":"t1","deriv":"d","platform":"golden"}
{"kind":"start","seq":4,"module":"A","test":"t2","deriv":"d","platform":"golden","attempt":1}
{"kind":"outcome","seq":5,"module":"A","test":"t2","deriv":"d","platform":"golden","status":"passed"}
{"kind":"start","seq":6,"module":"A","test":"t1","deriv":"d","platform":"golden","attempt":1}
{"kind":"cache-hit","seq":7,"module":"A","test":"t1","deriv":"d","platform":"golden"}
{"kind":"outcome","seq":8,"module":"A","test":"t1","deriv":"d","platform":"golden","status":"failed"}
{"kind":"end","seq":9,"passed":1,"failed":1}
`
	interleaved := `{"kind":"header","seq":1,"label":"rel-1","workers":2,"cells":2}
{"kind":"schedule","seq":2,"module":"A","test":"t2","deriv":"d","platform":"golden"}
{"kind":"schedule","seq":3,"module":"A","test":"t1","deriv":"d","platform":"golden"}
{"kind":"start","seq":4,"module":"A","test":"t1","deriv":"d","platform":"golden","attempt":1}
{"kind":"start","seq":5,"module":"A","test":"t2","deriv":"d","platform":"golden","attempt":1}
{"kind":"runtime","seq":6,"goroutines":9}
{"kind":"cache-hit","seq":7,"module":"A","test":"t1","deriv":"d","platform":"golden"}
{"kind":"outcome","seq":8,"module":"A","test":"t1","deriv":"d","platform":"golden","status":"failed"}
{"kind":"outcome","seq":9,"module":"A","test":"t2","deriv":"d","platform":"golden","status":"passed"}
{"kind":"end","seq":10,"passed":1,"failed":1}
`
	m1, err := Mask([]byte(serial))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Mask([]byte(interleaved))
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatalf("completion order leaked into the mask:\n%s\n--- vs ---\n%s", m1, m2)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(string(m1)), "\n") {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, string(r.Kind)+":"+r.Test)
	}
	want := "header: schedule:t2 schedule:t1 start:t2 outcome:t2 start:t1 cache-hit:t1 outcome:t1 end:"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("canonical order = %s\nwant            %s", got, want)
	}
}

// FuzzJournalRead drives the two JSONL parsers, Read and Mask, with
// arbitrary bytes: every input either fails with an error or yields
// records that survive a re-encode (Read) and one valid JSON value per
// output line (Mask) — never a panic.
func FuzzJournalRead(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRecords() {
		w.Emit(r)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"kind":"outcome","module":"m","test":"t","cycles":18446744073709551615}` + "\n" + `{"kind":`))
	f.Add([]byte("null\n[]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if recs, err := Read(bytes.NewReader(data)); err == nil {
			for i, r := range recs {
				raw, err := json.Marshal(r)
				if err != nil {
					t.Fatalf("record %d does not encode: %v", i, err)
				}
				var back Record
				if err := json.Unmarshal(raw, &back); err != nil || back != r {
					t.Fatalf("record %d changed across a re-encode: %+v -> %+v (%v)", i, r, back, err)
				}
			}
		}
		masked, err := Mask(data)
		if err != nil {
			return
		}
		for _, line := range bytes.Split(masked, []byte("\n")) {
			if len(line) > 0 && !json.Valid(line) {
				t.Fatalf("Mask wrote an invalid JSON line: %q", line)
			}
		}
	})
}
