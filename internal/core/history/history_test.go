package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Record("m/t@d/golden", "golden", 1000, 5000, "passed")
	s.Record("m/t@d/rtl", "rtl", 2000, 9000, "flaky")
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Fatalf("store file missing: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	c, ok := s2.Get("m/t@d/golden")
	if !ok {
		t.Fatalf("golden cell missing after reload")
	}
	if c.Runs != 1 || c.Passed != 1 || c.BuildNs != 1000 || c.RunNs != 5000 {
		t.Fatalf("golden cell = %+v", c)
	}
	if ns, ok := s2.Estimate("m/t@d/golden"); !ok || ns != 6000 {
		t.Fatalf("Estimate = %d, %v; want 6000, true", ns, ok)
	}
	f, _ := s2.Get("m/t@d/rtl")
	if f.Flaky != 1 || f.Failed != 1 || f.LastStatus != "flaky" {
		t.Fatalf("rtl cell = %+v", f)
	}
}

func TestEWMASmoothing(t *testing.T) {
	s := NewMemory()
	s.Record("k", "golden", 0, 1000, "passed")
	s.Record("k", "golden", 0, 3000, "passed")
	// EWMA with alpha 1/2: (1000+3000)/2 = 2000.
	if ns, _ := s.Estimate("k"); ns != 2000 {
		t.Fatalf("after two samples Estimate = %d, want 2000", ns)
	}
	s.Record("k", "golden", 0, 2000, "passed")
	if ns, _ := s.Estimate("k"); ns != 2000 {
		t.Fatalf("after three samples Estimate = %d, want 2000", ns)
	}
	c, _ := s.Get("k")
	if c.Runs != 3 || c.Passed != 3 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestEstimateKindFallback(t *testing.T) {
	s := NewMemory()
	s.Record("a", "rtl", 0, 1000, "passed")
	s.Record("b", "rtl", 0, 3000, "passed")
	if ns, ok := s.EstimateKind("rtl"); !ok || ns != 2000 {
		t.Fatalf("EstimateKind(rtl) = %d, %v; want 2000, true", ns, ok)
	}
	if _, ok := s.EstimateKind("gate"); ok {
		t.Fatalf("EstimateKind(gate) should report no data")
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Record("k", "golden", 1, 2, "passed")
	if _, ok := s.Estimate("k"); ok {
		t.Fatal("nil store should not estimate")
	}
	if _, ok := s.EstimateKind("golden"); ok {
		t.Fatal("nil store should not estimate kinds")
	}
	if s.Len() != 0 {
		t.Fatal("nil store Len != 0")
	}
	if err := s.Save(); err != nil {
		t.Fatalf("nil Save: %v", err)
	}
	if s.Order([]string{"k"}, []string{"golden"}) != nil {
		t.Fatal("nil store Order should be nil")
	}
}

func TestOrderLongestFirst(t *testing.T) {
	s := NewMemory()
	s.Record("short", "golden", 0, 100, "passed")
	s.Record("long", "golden", 0, 10_000, "passed")
	s.Record("mid", "golden", 0, 1_000, "passed")

	keys := []string{"short", "mid", "unknown-a", "long", "unknown-b"}
	kinds := []string{"golden", "golden", "gate", "golden", "gate"}
	order := s.Order(keys, kinds)
	if order == nil {
		t.Fatal("warm store returned nil order")
	}
	// Known cells longest first; gate cells (no per-kind data) estimate
	// zero and keep declaration order at the tail.
	want := []int{3, 1, 0, 2, 4}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	// A cold store keeps declaration order by returning nil.
	if got := NewMemory().Order(keys, kinds); got != nil {
		t.Fatalf("cold store order = %v, want nil", got)
	}
}

func TestOrderKindFallbackForUnseenCells(t *testing.T) {
	s := NewMemory()
	s.Record("seen-rtl", "rtl", 0, 50_000, "passed")
	s.Record("seen-golden", "golden", 0, 100, "passed")
	keys := []string{"seen-golden", "new-rtl", "seen-rtl"}
	kinds := []string{"golden", "rtl", "rtl"}
	order := s.Order(keys, kinds)
	// new-rtl inherits the rtl mean (50000) and ties with seen-rtl,
	// both ahead of the fast golden cell; the stable sort keeps the tie
	// in declaration order (index 1 before index 2).
	want := []int{1, 2, 0}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMakespanLPTBeatsDeclarationOrder(t *testing.T) {
	// A classic adversarial mix: one long job declared last. In
	// declaration order the long job starts after the short ones and
	// dominates the tail; LPT starts it first and packs the short jobs
	// around it.
	durations := []int64{100, 100, 100, 100, 100, 100, 1000}
	workers := 2

	decl := Makespan(durations, nil, workers)

	s := NewMemory()
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	kinds := make([]string, len(keys))
	for i, k := range keys {
		kinds[i] = "golden"
		s.Record(k, "golden", 0, durations[i], "passed")
	}
	lpt := Makespan(durations, s.Order(keys, kinds), workers)

	if lpt >= decl {
		t.Fatalf("LPT makespan %d not better than declaration order %d", lpt, decl)
	}
	// Optimal here is 1000 (long job alone on one worker, six shorts on
	// the other); LPT achieves it.
	if lpt != 1000 {
		t.Fatalf("LPT makespan = %d, want 1000", lpt)
	}
	if decl != 1300 {
		t.Fatalf("declaration-order makespan = %d, want 1300", decl)
	}
}

func TestSaveIsIdempotentWhenClean(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Save(); err != nil {
		t.Fatalf("clean Save: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); !os.IsNotExist(err) {
		t.Fatal("clean Save should not create a file")
	}
	s.Record("k", "golden", 1, 2, "passed")
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, FileName))
	if err := s.Save(); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, FileName))
	if string(before) != string(after) {
		t.Fatal("no-op Save changed the file")
	}
}

// TestOpenRejectsNullCells: JSON null decodes without error into a nil
// map or a nil cell, so a store file holding one must be refused as
// corrupt by Open rather than crash the first Order/Estimate/Record.
func TestOpenRejectsNullCells(t *testing.T) {
	for _, data := range []string{
		`{"m/t@SC88-A/golden": null}`,
		`{"m/t@SC88-A/golden": {"kind": "golden", "runs": 1}, "m/t@SC88-A/rtl": null}`,
		`null`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("Open(%s) = %v, want a corrupt-store error", data, err)
		}
	}
}
