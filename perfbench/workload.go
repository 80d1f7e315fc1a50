package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/castore"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/runcache"
	"repro/internal/core/shard"
	"repro/internal/core/sysenv"
	"repro/internal/core/telemetry"
	"repro/internal/core/vet"
	"repro/internal/platform"
)

// workers is the matrix's worker count, in-process goroutines or
// served worker processes alike: the measurement host has 2 cores.
const workers = 2

// workload is one way of running the matrix. setup readies the program
// (timed as setup_s), matrix runs one full certified matrix (timed as
// matrix_s), and close releases everything setup and the matrices made.
type workload interface {
	setup() error
	matrix(rec *recorder) (*matrixOut, error)
	close() error
	// peakRSS is the peak resident memory, in bytes, of the process
	// that runs the cells; called after close.
	peakRSS() (int64, error)
}

// matrixOut is one matrix's result and, when traced, what the seams
// saw.
type matrixOut struct {
	outcomes []regress.Outcome
	seal     string
	wall     time.Duration

	// Traced matrices only.
	rec          *recorder
	bstats       buildcache.Stats
	rstats       runcache.Stats
	reg          *telemetry.Registry
	rt           runtimeSample
	journalBytes int64
	// served: the daemon request ID (the key of the workers' per-request
	// traces) and the client-daemon frames and bytes.
	req                       uint64
	clientFrames, clientBytes int64
}

// newWorkload builds the named workload over a fresh work directory.
func newWorkload(name string, seed int64, dir string, traced bool) (workload, error) {
	base := inproc{name: name, seed: seed, dir: dir}
	switch name {
	case "cold", "fill", "restart":
		return &base, nil
	case "served":
		return &served{inproc: base, traced: traced}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inproc runs the matrix in the benchmark process: regress.Run over
// fresh in-memory caches, with a castore behind them for fill and
// restart.
type inproc struct {
	name  string
	seed  int64
	dir   string
	sys   *sysenv.System
	label *release.SystemLabel
	// prefilled is restart's store, filled during setup.
	prefilled string
	n         int
}

func (w *inproc) setup() error {
	var err error
	if w.sys, err = seededSystem(w.seed); err != nil {
		return err
	}
	if w.label, err = freeze(w.sys); err != nil {
		return err
	}
	if w.name != "restart" || w.prefilled != "" {
		return nil
	}
	// A previous process ran the full matrix with -store: every build
	// artifact and deterministic outcome is on disk.
	w.prefilled = filepath.Join(w.dir, "prefilled")
	store, err := castore.Open(w.prefilled, castore.Options{})
	if err != nil {
		return err
	}
	bc, rc := buildcache.New(), runcache.New()
	bc.SetBackend(store, sysenv.PersistEncode, sysenv.PersistDecode)
	rc.SetBackend(store)
	spec := regress.Spec{Workers: workers, Cache: bc, RunCache: rc}
	spec.RunSpec.Engine = platform.EngineTranslate
	if _, err := regress.Run(w.sys, w.label, spec); err != nil {
		return err
	}
	return store.Close()
}

func (w *inproc) matrix(rec *recorder) (*matrixOut, error) {
	out := &matrixOut{rec: rec}
	var store *castore.Store
	t0 := time.Now()
	storeDir := ""
	switch w.name {
	case "fill":
		// A fresh, empty store per matrix. The directories are deleted
		// only after the last matrix (see close): deleting them between
		// matrices discards blocks under the timed ones.
		w.n++
		storeDir = filepath.Join(w.dir, "fill-"+strconv.Itoa(w.n))
	case "restart":
		storeDir = w.prefilled
	}
	if storeDir != "" {
		var err error
		open := func() { store, err = castore.Open(storeDir, castore.Options{}) }
		rec.time("castore.open", open)
		if err != nil {
			return nil, err
		}
	}
	bc, rc := buildcache.New(), runcache.New()
	if store != nil {
		var backend buildcache.Backend = store
		enc, dec := buildcache.EncodeFunc(sysenv.PersistEncode), buildcache.DecodeFunc(sysenv.PersistDecode)
		if rec != nil {
			backend = &storeTrace{inner: store, rec: rec}
			enc, dec = persistCodecs(rec)
		}
		bc.SetBackend(backend, enc, dec)
		rc.SetBackend(backend)
	}
	jf, err := openJournal(w.dir)
	if err != nil {
		return nil, err
	}
	spec := regress.Spec{Workers: workers, Cache: bc, RunCache: rc, Journal: jf.sink(rec)}
	spec.RunSpec.Engine = platform.EngineTranslate
	if rec != nil {
		spec.Metrics = telemetry.NewRegistry()
		out.reg = spec.Metrics
		out.rt = readRuntime()
	}

	var rep *regress.Report
	run := func() { rep, err = regress.Run(w.sys, w.label, spec) }
	rec.time("regress.run", run)
	if err != nil {
		jf.close()
		return nil, err
	}
	if out.journalBytes, err = jf.close(); err != nil {
		return nil, err
	}
	if out.seal, err = certify(rec, w.sys, w.label, rep); err != nil {
		return nil, err
	}
	if store != nil {
		cl := func() { err = store.Close() }
		rec.time("castore.close", cl)
		if err != nil {
			return nil, err
		}
	}
	out.wall = time.Since(t0)
	out.outcomes = rep.Outcomes
	if rec != nil {
		out.rt = readRuntime().sub(out.rt)
		out.bstats, out.rstats = bc.Stats(), rc.Stats()
		rec.record(rec.root, 0, "matrix", "", t0, t0.Add(out.wall))
	}
	return out, nil
}

// journalFile is a matrix's flight record on disk. Every matrix
// rewrites the same file in place and then trims it, instead of
// truncating it first: on a filesystem mounted with discard, blocks
// freed and reallocated every matrix slow the writes that follow.
type journalFile struct {
	f  *os.File
	cw countWriter
	w  *journal.Writer
}

func openJournal(dir string) (*journalFile, error) {
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &journalFile{f: f}
	j.cw.w = f
	j.w = journal.NewWriter(&j.cw)
	return j, nil
}

// sink is what the matrix emits into: the writer, traced when rec is
// set.
func (j *journalFile) sink(rec *recorder) journal.Sink {
	if rec == nil {
		return j.w
	}
	return &sinkTrace{inner: j.w, rec: rec, open: make(map[string]time.Time)}
}

// close flushes the journal, trims what a longer earlier journal left
// behind, and returns the bytes written.
func (j *journalFile) close() (int64, error) {
	err := j.w.Close()
	n := j.cw.bytes.Load()
	if err == nil {
		err = j.f.Truncate(n)
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// certify seals the matrix's evidence bundle and renders it, as a
// user's certified run does, returning the seal.
func certify(rec *recorder, s *sysenv.System, label *release.SystemLabel, rep *regress.Report) (string, error) {
	var seal string
	var err error
	f := func() {
		var b *release.Bundle
		if b, err = release.Certify(s, label, vet.NewOptions(), rep.BundleCells()); err != nil {
			return
		}
		if _, err = b.JSON(); err != nil {
			return
		}
		seal = b.Hash
	}
	rec.time("release.certify", f)
	return seal, err
}

func (w *inproc) close() error {
	// Store hygiene: the fill stores go only now, after the last timed
	// matrix.
	for i := 1; i <= w.n && w.name == "fill"; i++ {
		if err := os.RemoveAll(filepath.Join(w.dir, "fill-"+strconv.Itoa(i))); err != nil {
			return err
		}
	}
	return nil
}

// peakRSS runs setup and one matrix in a fresh process, as a user's
// certified run does, and returns that process's peak resident memory.
// The benchmark process itself has run many matrices, and the program
// keeps memory per matrix, so its own peak would grow with the number
// of matrices the time allowed.
func (w *inproc) peakRSS() (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(w.dir, "rss-probe")
	cmd := exec.Command(exe, "-rss-probe", dir, "-workload", w.name,
		"-seed", strconv.FormatInt(w.seed, 10), "-prefilled", w.prefilled)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("peak RSS probe: %w", err)
	}
	peak, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("peak RSS probe: %w", err)
	}
	return peak, os.RemoveAll(dir)
}

// probeRSS is the -rss-probe process: setup and one matrix, then its
// peak resident memory in bytes on standard output.
func probeRSS(name string, seed int64, dir, prefilled string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w := &inproc{name: name, seed: seed, dir: dir, prefilled: prefilled}
	if err := w.setup(); err != nil {
		return err
	}
	if _, err := w.matrix(nil); err != nil {
		return err
	}
	if err := w.close(); err != nil {
		return err
	}
	peak, err := vmHWM("self")
	if err != nil {
		return err
	}
	fmt.Println(peak)
	return nil
}

// vmHWM reads a process's peak resident set size from procfs.
// getrusage cannot serve: a child's ru_maxrss also counts the memory of
// the parent it was spawned from.
func vmHWM(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// served runs the matrix on a shard.Daemon with worker processes and a
// store behind them; the benchmark process is the client.
type served struct {
	inproc
	traced   bool
	daemon   *shard.Daemon
	listener *listenerTrace
	addr     string
	cmds     []*exec.Cmd
	serveErr chan error
	// mu guards cmds: the daemon respawns a crashed worker from its
	// slot goroutine.
	mu   sync.Mutex
	peak int64
}

// warmups is how many full matrices setup sends before the daemon
// counts as warm: after two, each worker process holds in memory, or
// finds in the shared store, every artifact and outcome it is handed.
const warmups = 2

func (w *served) setup() error {
	var err error
	if w.sys, err = seededSystem(w.seed); err != nil {
		return err
	}
	if w.label, err = freeze(w.sys); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	storeDir := filepath.Join(w.dir, "store")
	w.daemon = &shard.Daemon{
		NewSystem: mustSeededSystem(w.seed),
		Workers:   workers,
		WorkerCommand: func(id int) *exec.Cmd {
			// The workers re-execute this binary and must freeze the
			// same seeded suite, or the daemon refuses their results.
			args := []string{"-worker", "-worker-id", strconv.Itoa(id),
				"-seed", strconv.FormatInt(w.seed, 10), "-store", storeDir}
			if w.traced {
				args = append(args, "-worker-trace", filepath.Join(w.dir, fmt.Sprintf("worker-%d-%d.json", id, time.Now().UnixNano())))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			w.mu.Lock()
			w.cmds = append(w.cmds, cmd)
			w.mu.Unlock()
			return cmd
		},
	}
	if err := w.daemon.Start(); err != nil {
		return err
	}
	sock := filepath.Join(w.dir, "d.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		w.daemon.Close()
		return err
	}
	w.addr = "unix:" + sock
	w.listener = &listenerTrace{Listener: l}
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.daemon.Serve(w.listener) }()
	for i := 0; i < warmups; i++ {
		if _, err := w.request(nil); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// request runs one full matrix on the daemon.
func (w *served) request(onResult func(*shard.Result)) (*shard.Reply, error) {
	reply, err := shard.Regress(w.addr, shard.Request{Label: labelName, Engine: "translate"}, onResult)
	if err != nil {
		return nil, err
	}
	if reply.Plan.Epoch != w.label.Epoch() {
		return nil, fmt.Errorf("epoch drift: daemon froze %s, client froze %s", reply.Plan.Epoch, w.label.Epoch())
	}
	return reply, nil
}

func (w *served) matrix(rec *recorder) (*matrixOut, error) {
	out := &matrixOut{rec: rec}
	var f0, b0 int64
	if rec != nil {
		f0, b0 = w.listener.frames.Load(), w.listener.bytes.Load()
	}
	t0 := time.Now()
	var reply *shard.Reply
	var err error
	run := func() {
		reply, err = w.request(func(r *shard.Result) { out.req = r.Req })
	}
	rec.time("shard.regress", run)
	if err != nil {
		return nil, err
	}
	jf, err := openJournal(w.dir)
	if err != nil {
		return nil, err
	}
	sink := jf.sink(rec)
	for _, r := range reply.Journal {
		sink.Emit(r)
	}
	if out.journalBytes, err = jf.close(); err != nil {
		return nil, err
	}
	rep := reply.Report()
	if out.seal, err = certify(rec, w.sys, w.label, rep); err != nil {
		return nil, err
	}
	out.wall = time.Since(t0)
	out.outcomes = rep.Outcomes
	if rec != nil {
		out.clientFrames = w.listener.frames.Load() - f0
		out.clientBytes = w.listener.bytes.Load() - b0
		rec.record(rec.root, 0, "matrix", "", t0, t0.Add(out.wall))
	}
	return out, nil
}

// close stops the daemon: Serve returns once the listener is closed
// (which also unlinks the socket), and Daemon.Close closes every
// worker's stdin and waits for it to exit.
func (w *served) close() error {
	if w.daemon == nil {
		return nil
	}
	if w.listener != nil {
		w.listener.Close()
		<-w.serveErr
	}
	// The workers' peak memory, read while they are still alive.
	w.mu.Lock()
	for _, c := range w.cmds {
		if c.Process == nil {
			continue
		}
		if peak, err := vmHWM(strconv.Itoa(c.Process.Pid)); err == nil && peak > w.peak {
			w.peak = peak
		}
	}
	w.mu.Unlock()
	w.daemon.Close()
	w.daemon = nil
	return nil
}

// peakRSS is the largest worker process's peak resident memory.
func (w *served) peakRSS() (int64, error) {
	if w.peak == 0 {
		return 0, fmt.Errorf("no served worker reported its peak memory")
	}
	return w.peak, nil
}
