package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core/castore"
	"repro/internal/core/shard"
	"repro/internal/core/sysenv"
	"repro/internal/predecode"
	"repro/internal/translate"
)

// runWorker is the served workload's worker mode: the daemon
// re-executes this binary with -worker, and it serves jobs through
// shard.RunWorker over stdin/stdout against the shared store. With
// traceOut set, it decorates stdin/stdout and the store and writes what
// they saw, per daemon request, to traceOut when the daemon closes its
// stdin.
func runWorker(id int, seed int64, storeDir, traceOut string) error {
	sys, err := seededSystem(seed)
	if err != nil {
		return err
	}
	store, err := castore.Open(storeDir, castore.Options{})
	if err != nil {
		return err
	}
	opts := shard.WorkerOptions{ID: id, NewSystem: func() *sysenv.System { return sys }, Store: store}
	var in io.Reader = os.Stdin
	var out io.Writer = os.Stdout
	var wt *workerTrace
	if traceOut != "" {
		wt = &workerTrace{byReq: make(map[uint64]*recorder)}
		wt.store = &storeTrace{inner: store, classify: wt.classify}
		opts.Store = wt.store
		in = &lineReader{r: os.Stdin, onLine: wt.jobLine}
		out = &jobEndWriter{w: os.Stdout, wt: wt}
	}
	err = shard.RunWorker(in, out, opts)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil && wt != nil {
		err = wt.write(traceOut)
	}
	return err
}

// workerTrace attributes everything a worker process does to the daemon
// request whose job it is running. A worker runs one job at a time on
// one goroutine — read the job frame, run the cell, write the result —
// so the current job is unambiguous.
type workerTrace struct {
	byReq map[uint64]*recorder
	store *storeTrace
	cur   *recorder
	job   struct {
		id    int64
		cell  string
		start time.Time
		rt    runtimeSample
		tr    translate.Stats
		pd    predecode.Stats
	}
}

// jobLine sees each frame the daemon writes to the worker.
func (wt *workerTrace) jobLine(line []byte) {
	var f struct {
		Type string `json:"type"`
		Job  *struct {
			Req  uint64       `json:"req"`
			Cell shard.CellID `json:"cell"`
		} `json:"job"`
	}
	if json.Unmarshal(line, &f) != nil || f.Type != shard.FrameJob || f.Job == nil {
		return
	}
	rec := wt.byReq[f.Job.Req]
	if rec == nil {
		rec = newRecorder()
		wt.byReq[f.Job.Req] = rec
	}
	wt.cur = rec
	wt.store.rec = rec
	rec.add("shard.frames", 1)
	rec.add("shard.bytes", float64(len(line)+1))
	wt.job.id = spanIDs.Add(1)
	rec.phase.Store(wt.job.id)
	c := f.Job.Cell
	wt.job.cell = fmt.Sprintf("%s/%s@%s/%s", c.Module, c.Test, c.Deriv, c.Platform)
	wt.job.rt = readRuntime()
	wt.job.tr = translate.GlobalStats()
	wt.job.pd = predecode.GlobalStats()
	wt.job.start = time.Now()
}

// jobEnd closes the current job when its result frame is written.
func (wt *workerTrace) jobEnd(frameBytes int) {
	rec := wt.cur
	if rec == nil {
		return
	}
	end := time.Now()
	rec.record(wt.job.id, rec.root, "shard.job", wt.job.cell, wt.job.start, end)
	rec.phase.Store(rec.root)
	rt := readRuntime().sub(wt.job.rt)
	tr := translate.GlobalStats()
	pd := predecode.GlobalStats()
	rec.add("shard.frames", 1)
	rec.add("shard.bytes", float64(frameBytes))
	rec.add("runtime.alloc_bytes", rt.allocBytes)
	rec.add("runtime.gc_cycles", rt.gcCycles)
	rec.add("runtime.gc_cpu_s", rt.gcCPU)
	rec.add("runtime.gc_assist_cpu_s", rt.assistCPU)
	rec.add("runtime.total_cpu_s", rt.totalCPU)
	rec.add("translate.blocks_built", float64(tr.Built-wt.job.tr.Built))
	rec.add("translate.blocks_executed", float64(tr.Executed-wt.job.tr.Executed))
	rec.add("predecode.pages_decoded", float64(pd.PagesDecoded-wt.job.pd.PagesDecoded))
	wt.cur = nil
}

// classify splits the shared store's traffic between the two caches
// that share it: a payload the build-artifact codec accepts belongs to
// the build cache, anything else to the run cache.
func (wt *workerTrace) classify(op string, data []byte) {
	if wt.cur == nil {
		return
	}
	cache := "runcache"
	if _, _, ok := sysenv.PersistDecode(data); ok {
		cache = "buildcache"
	}
	wt.cur.add(cache+"."+op+"s", 1)
}

// workerReport is the per-request trace a worker writes on exit.
type workerReport struct {
	Requests map[uint64]workerRequest `json:"requests"`
}

type workerRequest struct {
	Counts map[string]float64 `json:"counts"`
	Spans  []span             `json:"spans"`
}

func (wt *workerTrace) write(path string) error {
	rep := workerReport{Requests: make(map[uint64]workerRequest, len(wt.byReq))}
	for req, rec := range wt.byReq {
		rep.Requests[req] = workerRequest{Counts: rec.counts, Spans: rec.spans}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// jobEndWriter is the worker's stdout: every newline-terminated frame
// the worker writes is a job's result.
type jobEndWriter struct {
	w       io.Writer
	wt      *workerTrace
	pending int
}

func (j *jobEndWriter) Write(p []byte) (int, error) {
	n, err := j.w.Write(p)
	j.pending += n
	if n > 0 && p[n-1] == '\n' {
		j.wt.jobEnd(j.pending)
		j.pending = 0
	}
	return n, err
}
