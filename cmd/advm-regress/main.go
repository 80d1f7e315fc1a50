// Command advm-regress freezes the shipped system environment under a
// release label and runs the regression matrix: every test cell on every
// selected derivative and platform. The paper's Section 3 discipline is
// enforced: the regression only runs against the frozen label.
//
// Usage:
//
//	advm-regress                      # family x golden
//	advm-regress -platforms all       # family x all six platforms
//	advm-regress -derivs SC88-A,SC88-SEC -platforms golden,rtl
//	advm-regress -journal run.jsonl -history .advm-history -progress
//	advm-regress -serve /tmp/advm.sock -platforms all -retries 2 -deadline 30s
//
// With -serve the matrix runs on an advm-served daemon's worker pool
// under the same scheduler, so every execution-policy flag (-deadline,
// -retries, -breaker, -quarantine-after, -triage-dir) and every output
// (-journal, -progress, -junit, -bundle, -v) means what it means in
// process. Flags that configure what the daemon owns (-workers, -cache,
// -run-cache, -store, -history, -pprof) and -trace-out/-metrics-out are
// refused.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/advm"
)

func main() {
	log.SetFlags(0)
	derivs := flag.String("derivs", "all", "comma-separated derivatives or 'all'")
	plats := flag.String("platforms", "golden", "comma-separated platforms or 'all'")
	label := flag.String("label", "SYSREG_LOCAL", "release label name")
	verbose := flag.Bool("v", false, "print each failing cell")
	junit := flag.String("junit", "", "write a JUnit XML report to this file")
	bundle := flag.String("bundle", "", "write the sealed certification bundle (traceability x vet x matrix) to this file")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent matrix cells")
	cache := flag.Bool("cache", true, "memoise assembled units and linked images by content hash")
	runCache := flag.Bool("run-cache", true, "memoise deterministic-platform run outcomes by content hash")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event timeline of the matrix run (load in Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics registry as JSON ('-' for stdout)")
	triageDir := flag.String("triage-dir", "", "replay failing cells against a reference and write first-divergence artifacts here")
	deadline := flag.Duration("deadline", 0, "per-cell wall-clock deadline; a wedged platform run is cancelled, not hung (0 = unbounded)")
	retries := flag.Int("retries", 0, "extra attempts for transiently failing cells on physical platforms (emulator/bondout/silicon)")
	quarantineAfter := flag.Int("quarantine-after", 0, "bench a cell after this many flaky regressions and skip it (0 = off)")
	breaker := flag.Int("breaker", 0, "open a platform's circuit breaker after this many consecutive transient failures (0 = off)")
	engine := flag.String("engine", "translate", "simulator execution engine for every cell (interp, predecode, translate); all are bit-identical")
	journalPath := flag.String("journal", "", "write a JSONL flight record of the matrix run to this file (render with advm-report)")
	progress := flag.Bool("progress", false, "render a live in-place status line on stderr while the matrix runs")
	historyDir := flag.String("history", "", "run-history store directory; enables longest-expected-first scheduling and progress ETAs")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	storeDir := flag.String("store", "", "persistent artifact store directory: build artifacts and run outcomes survive restarts and are shared across processes")
	serveAddr := flag.String("serve", "", "run the matrix on an advm-served daemon at this address (unix socket path or host:port) instead of in-process")
	flag.Parse()

	// Both modes resolve the flags through one request: in process it
	// becomes the spec directly, with -serve it travels to the daemon,
	// which builds the same spec and runs the same scheduler.
	served := *serveAddr != ""
	if served {
		refuseDaemonFlags()
	}
	req := advm.ShardRequest{
		Label: *label, Engine: *engine, DeadlineNs: int64(*deadline), Retries: *retries,
		Breaker: *breaker, QuarantineAfter: *quarantineAfter, Triage: *triageDir != "",
	}
	if *derivs != "all" {
		for _, name := range strings.Split(*derivs, ",") {
			req.Derivs = append(req.Derivs, strings.TrimSpace(name))
		}
	}
	if *plats != "all" {
		for _, name := range strings.Split(*plats, ",") {
			req.Platforms = append(req.Platforms, strings.TrimSpace(name))
		}
	}
	spec, err := req.Spec()
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
		fmt.Printf("pprof serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// A served run freezes the same content locally and sends its epoch:
	// a daemon frozen on other content refuses the request.
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem(*label, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frozen release: %s\n\n", sl)

	spec.Workers = *workers
	var store *advm.ArtifactStore
	var hist *advm.HistoryStore
	metrics := advm.NewMetricsRegistry()
	if !served {
		if *cache {
			spec.Cache = advm.NewBuildCache()
		}
		if *runCache {
			spec.RunCache = advm.NewRunCache()
		}
		if *storeDir != "" {
			store, err = advm.OpenArtifactStore(*storeDir, advm.ArtifactStoreOptions{})
			if err != nil {
				log.Fatal(err)
			}
			advm.AttachArtifactStore(store, spec.Cache, spec.RunCache)
		}
		spec.Metrics = metrics
		if *traceOut != "" {
			spec.Timeline = advm.NewTimeline()
		}
		if *historyDir != "" {
			hist, err = advm.OpenHistory(*historyDir)
			if err != nil {
				log.Fatal(err)
			}
			spec.History = hist
		}
	}
	// Flight-record sinks: the file writer, the live board, and (with
	// -v) a streamer that prints failing cells as they land. All consume
	// the one record stream, teed — emitted in process, or streamed back
	// from the daemon. The board draws on stderr and routes its log lines
	// to stdout, so -progress and -v interleave cleanly.
	var sinks []advm.JournalSink
	var jw *advm.JournalWriter
	var jf *os.File
	if *journalPath != "" {
		jf, err = os.Create(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		jw = advm.NewJournalWriter(jf)
		sinks = append(sinks, jw)
	}
	var prog *advm.MatrixProgress
	if *progress {
		prog = advm.NewMatrixProgress(os.Stderr)
		prog.SetLogWriter(os.Stdout)
		if hist != nil {
			prog.SetEstimator(func(module, test, deriv, platform string) (int64, bool) {
				return hist.Estimate(advm.CellKey(module, test, deriv, platform))
			})
		}
		sinks = append(sinks, prog)
		if *verbose {
			sinks = append(sinks, advm.JournalSinkFunc(func(r advm.JournalRecord) {
				if r.Kind == advm.JournalOutcome && r.Status != "passed" {
					prog.Logf("FAIL %s: %s %s %s", r.CellID(),
						r.Status, r.Reason, r.BuildErr)
				}
			}))
		}
	}
	if len(sinks) > 0 {
		spec.Journal = advm.TeeJournal(sinks...)
	}

	t0 := time.Now()
	var rep *advm.RegressionReport
	where := fmt.Sprintf("%d workers", *workers)
	if served {
		rep, where, err = runServed(*serveAddr, req, spec.Journal, sl.Epoch())
	} else {
		rep, err = advm.Regress(sys, sl, spec)
	}
	wall := time.Since(t0)
	if prog != nil {
		prog.Done()
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Table())
	fmt.Println(rep.Summary())
	for _, kt := range rep.TimesByKind() {
		fmt.Printf("  %-10s %3d cells  build %8.1f ms  run %8.1f ms\n",
			kt.Kind, kt.Cells, float64(kt.BuildNanos)/1e6, float64(kt.RunNanos)/1e6)
	}
	fmt.Printf("wall time: %s (%s)\n", wall.Round(time.Millisecond), where)
	if spec.Cache != nil {
		fmt.Printf("build cache: %s\n", spec.Cache.Stats())
	}
	if spec.RunCache != nil {
		fmt.Printf("run cache: %s\n", spec.RunCache.Stats())
	}
	if store != nil {
		fmt.Printf("artifact store: %s\n", store.Stats())
		if err := store.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if ps := advm.PredecodeTotals(); ps.Hits+ps.Slow > 0 {
		fmt.Printf("predecode: %s\n", ps)
	}
	if ts := advm.TranslateTotals(); ts.Executed > 0 {
		fmt.Printf("translate: %s\n", ts)
	}
	if *deadline > 0 || *retries > 0 || *quarantineAfter > 0 || *breaker > 0 {
		var attempts, retried, flaky, cancelled, backoff int64
		quarantined := 0
		for _, o := range rep.Outcomes {
			attempts += int64(o.Attempts)
			if o.Attempts > 1 {
				retried++
			}
			if o.Flaky {
				flaky++
			}
			if o.Quarantined {
				quarantined++
			}
			if o.Reason == advm.StopCancelled || o.BuildErr == "cancelled" {
				cancelled++
			}
			backoff += o.BackoffNanos
		}
		fmt.Printf("resilience: %d attempts over %d cells (%d retried, %d flaky, %d cancelled), backoff %s\n",
			attempts, len(rep.Outcomes), retried, flaky, cancelled,
			time.Duration(backoff).Round(time.Millisecond))
		// The daemon owns a served run's quarantine and breakers.
		if spec.Quarantine != nil && !served {
			fmt.Printf("quarantine: %d cells benched, %d skipped this run\n",
				spec.Quarantine.Size(), quarantined)
		}
		if spec.Breakers != nil && !served {
			sum := spec.Breakers.Summary()
			if sum == "" {
				sum = "all closed, no trips"
			}
			fmt.Printf("breakers: %s\n", sum)
		}
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			log.Fatal(err)
		}
		if err := jf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("journal written to %s (%d records); render with advm-report\n", *journalPath, jw.Count())
	}
	if hist != nil {
		if err := hist.Save(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("history: %d cells tracked in %s\n", hist.Len(), *historyDir)
	}
	if *triageDir != "" {
		n := 0
		for _, o := range rep.Outcomes {
			if o.Triage != nil {
				if err := advm.WriteTriageFile(*triageDir, o.Triage); err != nil {
					log.Fatal(err)
				}
				n++
			}
		}
		fmt.Printf("triage: %d artifacts written to %s\n", n, *triageDir)
	}
	if *junit != "" {
		f, err := os.Create(*junit)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJUnit(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("junit report written to %s\n", *junit)
	}
	if *bundle != "" {
		b, err := advm.Certify(sys, sl, advm.DefaultVetOptions(), rep.BundleCells())
		if err != nil {
			log.Fatal(err)
		}
		out, err := b.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*bundle, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certification bundle written to %s (seal %s..)\n", *bundle, b.Hash[:12])
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.Timeline.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s (%d events)\n", *traceOut, spec.Timeline.Len())
	}
	if *metricsOut != "" {
		w := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := metrics.WriteJSON(w); err != nil {
			log.Fatal(err)
		}
		if *metricsOut != "-" {
			fmt.Printf("metrics written to %s\n", *metricsOut)
		}
	}
	if !rep.AllPassed() {
		// With -progress the -v streamer already printed failures live.
		if *verbose && !*progress {
			for _, f := range rep.Failures() {
				fmt.Printf("FAIL %s/%s on %s/%s: %s %s %s\n",
					f.Module, f.Test, f.Derivative, f.Platform, f.Reason, f.Detail, f.BuildErr)
				if f.Triage != nil {
					fmt.Printf("  %s\n", f.Triage.Summary())
				}
			}
		}
		os.Exit(1)
	}
}

// refuseDaemonFlags fails loudly on flags that configure what the
// daemon owns — its pool, caches, store, history and process — rather
// than silently ignoring them over -serve. -trace-out and -metrics-out
// wait for a per-cell cost ledger the daemon can stream back.
func refuseDaemonFlags() {
	daemonOwned := map[string]string{
		"workers":     "the daemon's -workers sets the pool size",
		"cache":       "the daemon's workers own their caches",
		"run-cache":   "the daemon's workers own their caches",
		"store":       "pass -store to advm-served instead",
		"history":     "pass -history to advm-served instead",
		"pprof":       "profile the daemon process instead",
		"trace-out":   "the timeline lives in the daemon and its workers",
		"metrics-out": "the metrics registry lives in the daemon and its workers",
	}
	flag.Visit(func(fl *flag.Flag) {
		if why, ok := daemonOwned[fl.Name]; ok {
			log.Fatalf("-%s cannot be combined with -serve: %s", fl.Name, why)
		}
	})
}

// runServed runs the request on the advm-served daemon at addr, feeding
// every record the daemon's scheduler emits to sink as cells close, and
// returns the daemon's report and a note on where it ran. The request
// carries the local epoch, so a daemon frozen on other content refuses
// it before any record reaches sink.
func runServed(addr string, req advm.ShardRequest, sink advm.JournalSink, epoch string) (*advm.RegressionReport, string, error) {
	req.Epoch = epoch
	emit := func(recs []advm.JournalRecord) {
		for _, r := range recs {
			if sink != nil {
				sink.Emit(r)
			}
		}
	}
	reply, err := advm.ShardRegress(addr, req, func(r *advm.ShardResult) { emit(r.Records) })
	if err != nil {
		return nil, "", err
	}
	emit(reply.Done.Records)
	return reply.Report(), fmt.Sprintf("%d worker processes on %s, daemon wall %s",
		reply.Plan.Workers, addr, time.Duration(reply.Done.WallNs).Round(time.Millisecond)), nil
}
