// Command perfbench is the ADVM regression-matrix benchmark. One run
// freezes the seeded suite (5 modules, 21 tests x 4 derivatives x 6
// platforms = 504 cells) and runs it as a certified regression, again
// and again for --seconds, under one workload:
//
//	cold     fresh in-memory caches, no store
//	fill     fresh caches over a fresh, empty castore per matrix
//	restart  fresh caches over a castore filled in setup, reopened per matrix
//	served   a shard.Daemon with worker processes, warm, on a unix socket
//
// Every matrix is checked against a serial, uncached, interpreter-engine
// reference of the same seeded suite. With --trace 0 the run prints the
// end-to-end metrics; with --trace 1 it runs the workload untraced and
// then traced, replays the traced matrix's layers, and prints the
// per-layer metrics, a per-layer share table and the spans file it
// wrote. The last line of standard output is one JSON object.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "repro/advm" // registers the six platforms
	"repro/internal/core/release"
	"repro/internal/core/sysenv"
)

// defaultSeed is the seed a claim is developed on; heldOutSeed is the
// one a later change checks its claim on before reporting it.
const (
	defaultSeed = 1
	heldOutSeed = 11
)

// A run sets the workload up at least minSetups times, and more until
// setupBudget has passed (at most maxSetups), keeping the last; setup_s
// is the median. Cold and fill set up in about a millisecond, so they
// take many samples; restart and served take the minimum.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
)

// minMatrices keeps a short --seconds from yielding a median of one.
const minMatrices = 3

var workloadNames = []string{"cold", "fill", "restart", "served"}

func main() {
	name := flag.String("workload", "cold", "workload: "+strings.Join(workloadNames, ", ")+", or all (traced runs only)")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 10, "how long to run timed matrices")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a separate traced run")
	worker := flag.Bool("worker", false, "internal: served worker process")
	workerID := flag.Int("worker-id", 0, "internal: served worker slot")
	storeDir := flag.String("store", "", "internal: served worker store")
	workerTrace := flag.String("worker-trace", "", "internal: served worker trace file")
	rssProbe := flag.String("rss-probe", "", "internal: run setup and one matrix in this directory")
	prefilled := flag.String("prefilled", "", "internal: restart's pre-filled store, for -rss-probe")
	flag.Parse()

	if *rssProbe != "" {
		if err := probeRSS(*name, *seed, *rssProbe, *prefilled); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench RSS probe: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *worker {
		if err := runWorker(*workerID, *seed, *storeDir, *workerTrace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench worker %d: %v\n", *workerID, err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run prepares the seeded suite and its reference, then measures.
func run(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	names := []string{name}
	if name == "all" && traced {
		names = workloadNames
	}
	for _, n := range names {
		if !contains(workloadNames, n) {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		// On a filesystem mounted with discard, deleting the stores
		// issues discards at the next journal commit; sync so that
		// commit happens here rather than under the next run's first
		// matrices.
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	sys, err := seededSystem(seed)
	if err != nil {
		return nil, err
	}
	label, err := freeze(sys)
	if err != nil {
		return nil, err
	}
	pages := drawPages(seed)
	fmt.Printf("seed %d: TEST1_TARGET_PAGE=%d TEST2_TARGET_PAGE=%d, label %s epoch %.12s\n",
		seed, pages["TEST1_TARGET_PAGE"], pages["TEST2_TARGET_PAGE"], labelName, label.Epoch())
	t0 := time.Now()
	ref, err := computeReference(sys, label)
	if err != nil {
		return nil, err
	}
	fmt.Printf("reference: %d cells, seal %.12s (serial, uncached, interp; %.2f s, not part of setup)\n",
		len(ref.cells), ref.seal, time.Since(t0).Seconds())

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	if !traced {
		return res, measure(res, name, seed, dir, seconds, ref)
	}
	var cols []shareColumn
	var recs []*recorder
	for _, n := range names {
		prefix := ""
		if len(names) > 1 {
			prefix = n + ":"
		}
		col, r, err := measureTraced(res, prefix, n, seed, filepath.Join(dir, n), seconds, sys, label, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		cols = append(cols, col)
		recs = append(recs, r...)
	}
	fmt.Println()
	writeShareTable(os.Stdout, cols)
	fmt.Println()
	writePredictions(os.Stdout)
	spans := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-seed%d.json", name, seed))
	if err := writeSpans(spans, recs); err != nil {
		return nil, err
	}
	fmt.Printf("\nspans written to %s\n", spans)
	return res, nil
}

// session is one workload set up and run for a while.
type session struct {
	outs   []*matrixOut
	setups []float64
	rss    int64
}

// runSession sets the workload up (repeatedly with repeatSetup, keeping
// the last), runs matrices until the time is up, checks each against the
// reference, and tears everything down.
func runSession(res *result, name string, seed int64, dir string, seconds time.Duration, repeatSetup, traced bool, ref *reference) (*session, error) {
	s := &session{}
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	// The reference matrix left garbage behind; collect it now so its
	// cost does not land in setup_s.
	runtime.GC()
	var spent time.Duration
	more := func(i int) bool {
		if !repeatSetup {
			return i < 1
		}
		return i < minSetups || (spent < setupBudget && i < maxSetups)
	}
	for i := 0; more(i); i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		wi, err := newWorkload(name, seed, sub, traced)
		if err != nil {
			return nil, err
		}
		w = wi
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		s.setups = append(s.setups, took.Seconds())
		if more(i + 1) {
			if err := w.close(); err != nil {
				return nil, err
			}
			w = nil
			if err := os.RemoveAll(sub); err != nil {
				return nil, err
			}
		}
	}
	deadline := time.Now().Add(seconds)
	for len(s.outs) < minMatrices || time.Now().Before(deadline) {
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		out, err := w.matrix(rec)
		if err != nil {
			return nil, fmt.Errorf("matrix %d: %w", len(s.outs)+1, err)
		}
		wrong := ref.wrongCells(out.outcomes, out.seal)
		res.Attempted += len(out.outcomes)
		res.Failed += wrong
		if wrong > 0 {
			res.Correct = false
			fmt.Printf("matrix %d: %d cells differ from the reference (seal %.12s, want %.12s)\n",
				len(s.outs)+1, wrong, out.seal, ref.seal)
		}
		s.outs = append(s.outs, out)
	}
	err := w.close()
	if err == nil && !traced {
		s.rss, err = w.peakRSS()
	}
	w = nil
	return s, err
}

// measure is the untraced run: the end-to-end metrics.
func measure(res *result, name string, seed int64, dir string, seconds time.Duration, ref *reference) error {
	s, err := runSession(res, name, seed, dir, seconds, true, false, ref)
	if err != nil {
		return err
	}
	var walls, cellMs []float64
	for _, out := range s.outs {
		walls = append(walls, out.wall.Seconds())
		for _, o := range out.outcomes {
			cellMs = append(cellMs, float64(o.BuildNanos+o.RunNanos)/1e6)
		}
	}
	sort.Float64s(walls)
	sort.Float64s(cellMs)
	sort.Float64s(s.setups)
	res.Metrics["matrix_s"] = metric{median(walls), "s"}
	res.Metrics["cell_ms_p99"] = metric{percentile(cellMs, 0.99), "ms"}
	res.Metrics["setup_s"] = metric{median(s.setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(s.rss) / mb, "MB"}
	errorRate := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("workload %s, seed %d, %d workers\n", name, seed, workers)
	fmt.Printf("  matrix_s     %10.4f s    median of %d matrices (min %.4f, max %.4f)\n",
		median(walls), len(walls), walls[0], walls[len(walls)-1])
	fmt.Printf("  cell_ms_p99  %10.4f ms   99th percentile of %d cells (%d beyond it)\n",
		percentile(cellMs, 0.99), len(cellMs), len(cellMs)-int(math.Ceil(0.99*float64(len(cellMs)))))
	fmt.Printf("  setup_s      %10.4f s    median of %d setups\n", median(s.setups), len(s.setups))
	fmt.Printf("  peak_rss_mb  %10.1f MB   peak resident memory of the process running the cells\n", float64(s.rss)/mb)
	fmt.Printf("  error_rate   %10.4f      %d wrong of %d cells attempted\n", errorRate, res.Failed, res.Attempted)
	return nil
}

// measureTraced is the traced run: the workload untraced for half the
// time, then traced for the other half, then the layer replay of the
// last traced matrix.
func measureTraced(res *result, prefix, name string, seed int64, dir string, seconds time.Duration,
	sys *sysenv.System, label *release.SystemLabel, ref *reference) (shareColumn, []*recorder, error) {
	col := shareColumn{workload: name}
	plain, err := runSession(res, name, seed, filepath.Join(dir, "untraced"), seconds/2, false, false, ref)
	if err != nil {
		return col, nil, err
	}
	var untraced []float64
	for _, out := range plain.outs {
		untraced = append(untraced, ms(out.wall))
	}
	sort.Float64s(untraced)
	tdir := filepath.Join(dir, "traced")
	tr, err := runSession(res, name, seed, tdir, seconds/2, false, true, ref)
	if err != nil {
		return col, nil, err
	}
	last := tr.outs[len(tr.outs)-1]
	rp, err := replay(sys, label, last.outcomes, name == "restart" || name == "served")
	if err != nil {
		return col, nil, err
	}
	var byReq map[uint64]workerRequest
	if name == "served" {
		if byReq, err = readWorkerTraces(tdir); err != nil {
			return col, nil, err
		}
	}
	v, err := layerValues(tr.outs, rp, byReq, time.Duration(median(untraced)*1e6))
	if err != nil {
		return col, nil, err
	}
	for _, m := range layerMetrics {
		res.Metrics[prefix+m.name] = metric{v[m.name], m.unit}
	}
	var walls []float64
	for _, out := range tr.outs {
		walls = append(walls, ms(out.wall))
	}
	col.matrixMs = mean(walls)
	col.v = v
	fmt.Printf("workload %s traced: %d untraced matrices (median %.1f ms), %d traced (mean %.1f ms), replay of the last: %d units, %d links, %d runs\n",
		name, len(untraced), median(untraced), len(walls), col.matrixMs, rp.units, rp.links, rp.runs)
	recs := []*recorder{rp.rec}
	for _, out := range tr.outs {
		recs = append(recs, out.rec)
	}
	for _, wr := range byReq {
		r := newRecorder()
		r.spans = wr.Spans
		recs = append(recs, r)
	}
	return col, recs, nil
}

// readWorkerTraces merges the served workers' per-request traces.
func readWorkerTraces(dir string) (map[uint64]workerRequest, error) {
	files, err := filepath.Glob(filepath.Join(dir, "setup-*", "worker-*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no served worker traces in %s", dir)
	}
	out := make(map[uint64]workerRequest)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep workerReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for req, wr := range rep.Requests {
			m := out[req]
			if m.Counts == nil {
				m.Counts = make(map[string]float64)
			}
			for k, c := range wr.Counts {
				m.Counts[k] += c
			}
			m.Spans = append(m.Spans, wr.Spans...)
			out[req] = m
		}
	}
	return out, nil
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
