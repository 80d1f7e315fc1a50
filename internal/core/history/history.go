// Package history is the cross-run memory of the regression matrix: an
// on-disk per-cell store of build/run times and verdict counts, keyed
// by the resilience CellKey (module/test@deriv/platform). It closes the
// scheduling half of the regression-as-a-service roadmap item: a matrix
// that knows how long each cell took last time can dispatch the longest
// expected jobs first (the classic LPT heuristic), shrinking the
// makespan at a fixed worker count, and a progress board that knows the
// expected remaining work can print a real ETA instead of a guess.
//
// Times are smoothed with a half-life-one EWMA (new = (old+sample)/2):
// recent runs dominate, a one-off hiccup decays in a few runs, and the
// arithmetic is integer-exact so the store file is deterministic for a
// deterministic run sequence. Cells with no history fall back to the
// per-platform-kind mean, then to declaration order — a cold store
// degrades to exactly the old behaviour.
//
// The store is a single JSON file (advm-history.json) under the store
// directory, written atomically (temp file + rename) with sorted keys,
// so concurrent readers never observe a torn file and the file diffs
// cleanly under version control. All methods are nil-safe: a nil
// *Store records nothing and estimates nothing, so the matrix threads
// an optional store without guards.
package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FileName is the store file inside the store directory.
const FileName = "advm-history.json"

// CellStats is the accumulated history of one matrix cell.
type CellStats struct {
	// Kind is the platform kind, denormalised from the key so per-kind
	// aggregates need no key parsing.
	Kind string `json:"kind"`
	// Runs counts recorded runs; Passed/Failed/Flaky partition them.
	Runs   int `json:"runs"`
	Passed int `json:"passed"`
	Failed int `json:"failed"`
	Flaky  int `json:"flaky"`
	// BuildNs and RunNs are EWMA-smoothed nanoseconds.
	BuildNs int64 `json:"build_ewma_ns"`
	RunNs   int64 `json:"run_ewma_ns"`
	// LastStatus and LastWall describe the most recent recorded run
	// (LastWall is absolute RFC3339; informational only).
	LastStatus string `json:"last_status"`
	LastWall   string `json:"last_wall,omitempty"`
}

// ExpectedNs is the cell's expected build+run time.
func (c CellStats) ExpectedNs() int64 { return c.BuildNs + c.RunNs }

// FlakyRate is the fraction of recorded runs that were flaky.
func (c CellStats) FlakyRate() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.Flaky) / float64(c.Runs)
}

// Store is the on-disk history. Create with Open; share one store
// across regressions like the build and run caches. Safe for
// concurrent use.
type Store struct {
	mu    sync.Mutex
	dir   string
	cells map[string]*CellStats
	dirty bool
}

// Open loads the store under dir, creating an empty store when the
// file does not exist yet. The directory itself is created by Save.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, cells: map[string]*CellStats{}}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if err := json.Unmarshal(data, &s.cells); err != nil {
		return nil, fmt.Errorf("history: %s is corrupt: %w", FileName, err)
	}
	// JSON null decodes without error into a nil map or a nil cell,
	// either of which every later method would dereference.
	if s.cells == nil {
		return nil, fmt.Errorf("history: %s is corrupt: null store", FileName)
	}
	for key, c := range s.cells {
		if c == nil {
			return nil, fmt.Errorf("history: %s is corrupt: null cell %q", FileName, key)
		}
	}
	return s, nil
}

// NewMemory creates a store with no backing directory — history for a
// single process lifetime (tests, benchmarks). Save on it is a no-op.
func NewMemory() *Store {
	return &Store{cells: map[string]*CellStats{}}
}

// Record folds one completed run of a cell into the store. status is
// one of the journal outcome statuses (passed/failed/flaky); runs
// served from the run cache should not be recorded — their run time is
// a cache lookup, not a simulation, and would poison the estimates.
func (s *Store) Record(key, kind string, buildNs, runNs int64, status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cells[key]
	if !ok {
		c = &CellStats{Kind: kind, BuildNs: buildNs, RunNs: runNs}
		s.cells[key] = c
	} else {
		c.Kind = kind
		c.BuildNs = (c.BuildNs + buildNs) / 2
		c.RunNs = (c.RunNs + runNs) / 2
	}
	c.Runs++
	switch status {
	case "passed":
		c.Passed++
	case "flaky":
		c.Flaky++
		c.Failed++
	default:
		c.Failed++
	}
	c.LastStatus = status
	c.LastWall = time.Now().UTC().Format(time.RFC3339)
	s.dirty = true
}

// Estimate returns the cell's expected build+run nanoseconds, or
// (0, false) for a cell the store has never seen.
func (s *Store) Estimate(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cells[key]
	if !ok || c.Runs == 0 {
		return 0, false
	}
	return c.ExpectedNs(), true
}

// EstimateKind returns the mean expected time over every recorded cell
// of one platform kind — the warm-start prior for cells the store has
// not seen individually.
func (s *Store) EstimateKind(kind string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	n := 0
	for _, c := range s.cells {
		if c.Kind == kind && c.Runs > 0 {
			sum += c.ExpectedNs()
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / int64(n), true
}

// Get returns a copy of one cell's stats.
func (s *Store) Get(key string) (CellStats, bool) {
	if s == nil {
		return CellStats{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cells[key]
	if !ok {
		return CellStats{}, false
	}
	return *c, true
}

// Len reports the number of tracked cells.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Save writes the store atomically (temp file + rename) with sorted
// keys. A store opened without a directory (NewMemory) or with no new
// records is a no-op.
func (s *Store) Save() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" || !s.dirty {
		return nil
	}
	data, err := json.MarshalIndent(s.cells, "", "  ")
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, FileName+".tmp*")
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("history: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("history: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, FileName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("history: %w", err)
	}
	s.dirty = false
	return nil
}

// Order computes the longest-expected-job-first dispatch permutation
// for a matrix: cells sorted by descending expected time, where a
// cell's estimate is its own history, then the per-kind mean, then
// zero. The sort is stable, so cells without any estimate keep their
// declaration order (the cold fallback) and sink to the end — the
// cheap unknowns fill worker idle tails instead of blocking the long
// jobs. Returns nil when the store is nil or has nothing to say,
// meaning "keep declaration order".
func (s *Store) Order(keys, kinds []string) []int {
	if s == nil || s.Len() == 0 {
		return nil
	}
	est := make([]int64, len(keys))
	any := false
	kindMean := map[string]int64{}
	for i, key := range keys {
		if ns, ok := s.Estimate(key); ok {
			est[i] = ns
			any = true
			continue
		}
		kind := kinds[i]
		mean, seen := kindMean[kind]
		if !seen {
			mean, _ = s.EstimateKind(kind)
			kindMean[kind] = mean
		}
		if mean > 0 {
			est[i] = mean
			any = true
		}
	}
	if !any {
		return nil
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return est[order[a]] > est[order[b]] })
	return order
}

// Makespan simulates a greedy list scheduler: cells dispatched in
// order onto the least-loaded of `workers` identical workers, each
// cell costing durations[i] nanoseconds. It returns the simulated
// completion time — the analytical tool the E17 experiment uses to
// compare dispatch orders without wall-clock noise.
func Makespan(durations []int64, order []int, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	load := make([]int64, workers)
	if order == nil {
		order = make([]int, len(durations))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		// Dispatch to the least-loaded worker (a channel-fed pool drains
		// in exactly this pattern when cells dominate dispatch overhead).
		min := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[min] {
				min = w
			}
		}
		load[min] += durations[i]
	}
	var max int64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
