package history

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzHistoryOpen feeds arbitrary bytes as the store file. Open must
// either refuse them or return a store on which every method is total
// (no panic on any cell it accepted) and whose Save reopens to the same
// cells.
func FuzzHistoryOpen(f *testing.F) {
	dir := f.TempDir()
	s := NewMemory()
	s.dir = dir
	s.Record("UART/t1@SC88-A/golden", "golden", 1000, 5000, "passed")
	s.Record("UART/t1@SC88-A/rtl", "rtl", 2000, 9000, "flaky")
	s.Record("NVM/t2@SC88-SEC/emulator", "emulator", 300, 700, "failed")
	if err := s.Save(); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	for _, seed := range []string{
		`{}`, `null`, `[]`, `{"m/t@SC88-A/golden": null}`,
		`{"k": {"kind": "golden", "runs": -3, "build_ewma_ns": 9223372036854775807, "run_ewma_ns": 1}}`,
	} {
		f.Add([]byte(seed))
	}

	// One directory per fuzz process, rewritten per input: creating and
	// deleting a directory per input would dominate the budget.
	work := f.TempDir()
	const probe = "m/t@SC88-A/golden"
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := work
		if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		keys, kinds := []string{probe}, []string{"golden"}
		for key, c := range s.cells {
			keys = append(keys, key)
			kinds = append(kinds, c.Kind)
		}
		s.Order(keys, kinds)
		for i, key := range keys {
			s.Estimate(key)
			s.EstimateKind(kinds[i])
			s.Get(key)
		}
		s.Record(probe, "golden", 10, 20, "passed")
		if err := s.Save(); err != nil {
			t.Fatalf("Save of an accepted store: %v", err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("saved store does not reopen: %v", err)
		}
		if !reflect.DeepEqual(again.cells, s.cells) {
			t.Fatalf("Save/Open round trip changed the store")
		}
	})
}
