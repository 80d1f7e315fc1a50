package regress

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/history"
	"repro/internal/core/journal"
	"repro/internal/platform"
)

// collectSink gathers records in memory for assertions.
type collectSink struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (c *collectSink) Emit(r journal.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

func (c *collectSink) byKind(k journal.Kind) []journal.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []journal.Record
	for _, r := range c.recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

func TestJournalRecordsMatrixRun(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	sink := &collectSink{}
	rep, err := Run(s, sl, Spec{
		Derivatives: derivative.Family()[:1],
		Kinds:       []platform.Kind{platform.KindGolden},
		Journal:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}

	headers := sink.byKind(journal.KindHeader)
	if len(headers) != 1 {
		t.Fatalf("header records = %d, want 1", len(headers))
	}
	h := headers[0]
	if h.Label != "SYSREG" || h.Version != journal.Version || h.Cells != len(rep.Outcomes) || h.Epoch == "" {
		t.Fatalf("header = %+v", h)
	}

	if got := len(sink.byKind(journal.KindSchedule)); got != len(rep.Outcomes) {
		t.Fatalf("schedule records = %d, want %d", got, len(rep.Outcomes))
	}
	if got := len(sink.byKind(journal.KindStart)); got != len(rep.Outcomes) {
		t.Fatalf("start records = %d, want %d", got, len(rep.Outcomes))
	}
	outcomes := sink.byKind(journal.KindOutcome)
	if len(outcomes) != len(rep.Outcomes) {
		t.Fatalf("outcome records = %d, want %d", len(outcomes), len(rep.Outcomes))
	}
	for _, o := range outcomes {
		if o.Status != journal.StatusPassed {
			t.Fatalf("outcome %s status = %s, want passed", o.CellID(), o.Status)
		}
	}

	ends := sink.byKind(journal.KindEnd)
	if len(ends) != 1 {
		t.Fatalf("end records = %d, want 1", len(ends))
	}
	p, _, _ := rep.Counts()
	if ends[0].Passed != p || ends[0].WallNs <= 0 {
		t.Fatalf("end record = %+v, want %d passed", ends[0], p)
	}

	if got := len(sink.byKind(journal.KindRuntime)); got < 2 {
		t.Fatalf("runtime samples = %d, want >= 2 (start and end)", got)
	}
}

func TestJournalSerialRunsAreByteDeterministic(t *testing.T) {
	runOnce := func() []byte {
		s := content.PortedSystem()
		sl := freeze(t, s)
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		_, err := Run(s, sl, Spec{
			Derivatives: derivative.Family()[:2],
			Kinds:       []platform.Kind{platform.KindGolden},
			Journal:     w,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, err := journal.Mask(runOnce())
	if err != nil {
		t.Fatal(err)
	}
	b, err := journal.Mask(runOnce())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("masked journals of identical serial runs differ:\n%s\n--- vs ---\n%s", a, b)
	}
}

// TestJournalMaskIndependentOfWorkers: concurrent workers write cells
// in completion order, and the mask lays them back out in schedule
// order — so 1, 2 and 4 workers give byte-identical masked journals.
// This is the in-process half of the contract the served and fleet
// tests hold across process boundaries.
func TestJournalMaskIndependentOfWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		s := content.PortedSystem()
		sl := freeze(t, s)
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		if _, err := Run(s, sl, Spec{
			Derivatives: derivative.Family()[:2],
			Kinds:       []platform.Kind{platform.KindGolden, platform.KindEmulator},
			Workers:     workers,
			Journal:     w,
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := journal.Mask(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("masked journal with %d workers differs from the serial one:\n%s\n--- vs ---\n%s",
				workers, want, got)
		}
	}
}

func TestHistorySchedulerReordersDispatch(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	store := history.NewMemory()

	// Warm run: the store learns every cell's times.
	rep, err := Run(s, sl, Spec{
		Derivatives: derivative.Family()[:1],
		Kinds:       []platform.Kind{platform.KindGolden},
		History:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(rep.Outcomes) {
		t.Fatalf("history learned %d cells, want %d", store.Len(), len(rep.Outcomes))
	}

	// Snapshot the estimates now: run 2's Record calls will move the
	// EWMAs, but its dispatch order is computed from this state.
	est := map[string]int64{}
	for _, o := range rep.Outcomes {
		id := o.Module + "/" + o.Test + "@" + o.Derivative + "/" + o.Platform.String()
		est[id], _ = store.Estimate(id)
	}

	// Second run: the schedule must be the store's longest-first order,
	// and the report must stay in enumeration order regardless.
	sink := &collectSink{}
	rep2, err := Run(s, sl, Spec{
		Derivatives: derivative.Family()[:1],
		Kinds:       []platform.Kind{platform.KindGolden},
		History:     store,
		Journal:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Outcomes {
		if rep.Outcomes[i].Module != rep2.Outcomes[i].Module || rep.Outcomes[i].Test != rep2.Outcomes[i].Test {
			t.Fatalf("outcome order changed between runs at %d", i)
		}
	}

	sched := sink.byKind(journal.KindSchedule)
	if len(sched) != len(rep2.Outcomes) {
		t.Fatalf("schedule records = %d, want %d", len(sched), len(rep2.Outcomes))
	}
	// The schedule must be a permutation of the cells, non-increasing in
	// the pre-run estimates (longest expected job first).
	seen := map[string]bool{}
	prev := int64(-1)
	for i, r := range sched {
		id := r.CellID()
		if seen[id] {
			t.Fatalf("cell %s scheduled twice", id)
		}
		seen[id] = true
		if i > 0 && est[id] > prev {
			t.Fatalf("schedule not longest-first: %s (est %d) after a cell with est %d", id, est[id], prev)
		}
		prev = est[id]
	}
	for _, o := range rep2.Outcomes {
		id := o.Module + "/" + o.Test + "@" + o.Derivative + "/" + o.Platform.String()
		if !seen[id] {
			t.Fatalf("cell %s never scheduled", id)
		}
	}
}

func TestHistorySkipsCachedAndBrokenCells(t *testing.T) {
	s := content.PortedSystem()
	sl := freeze(t, s)
	store := history.NewMemory()
	rep, err := Run(s, sl, Spec{
		Derivatives: derivative.Family()[:1],
		Kinds:       []platform.Kind{platform.KindGolden},
		Modules:     []string{"NVM"},
		History:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := store.Len()
	if before != len(rep.Outcomes) {
		t.Fatalf("history learned %d cells, want %d", before, len(rep.Outcomes))
	}
	// An unknown module breaks before any cell runs; the store must not
	// grow from a run that recorded nothing new.
	if _, err := Run(s, sl, Spec{Modules: []string{"NOPE"}, History: store}); err == nil {
		t.Fatal("unknown module must fail")
	}
	if store.Len() != before {
		t.Fatalf("history grew to %d from a failed run", store.Len())
	}
}
