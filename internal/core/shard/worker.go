package shard

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/derivative"
	"repro/internal/core/regress"
	"repro/internal/core/runcache"
	"repro/internal/core/sysenv"
	"repro/internal/platform"
	"repro/internal/soc"
)

// WorkerOptions configures one worker (a local pool subprocess or a
// remote TCP slot).
type WorkerOptions struct {
	// ID is the worker's index in the daemon's pool, stamped into every
	// result.
	ID int
	// NewSystem constructs the worker's module environments from
	// content. Every worker (and the daemon) builds from the same
	// content source; the epoch check on each job proves it.
	NewSystem func() *sysenv.System
	// Store, when non-nil, is the persistent artifact backend: the
	// worker's build and run caches write through to it, so work done by
	// one worker (or an earlier process) is a hit for the others. Local
	// workers mount the daemon's castore directory; remote workers mount
	// a RemoteStore (optionally fetch-through a local castore tier).
	Store buildcache.Backend
	// NewPlatform overrides platform instantiation, as
	// regress.Local.NewPlatform does (nil means platform.New):
	// fault-injection harnesses hand the worker a deliberately broken
	// device.
	NewPlatform func(platform.Kind, soc.HWConfig) (platform.Platform, error)
}

// worker is the per-process state behind RunWorker: one system, its
// content epoch, and one regress.Local whose caches live for the
// process and optionally spill to the shared store.
type worker struct {
	opts  WorkerOptions
	epoch string
	local *regress.Local
}

// newWorker builds the per-process worker state.
func newWorker(opts WorkerOptions) (*worker, error) {
	if opts.NewSystem == nil {
		return nil, fmt.Errorf("shard: worker needs a NewSystem constructor")
	}
	sys := opts.NewSystem()
	local := &regress.Local{System: sys, Cache: buildcache.New(),
		RunCache: runcache.New(), NewPlatform: opts.NewPlatform}
	if opts.Store != nil {
		local.Cache.SetBackend(opts.Store, sysenv.PersistEncode, sysenv.PersistDecode)
		local.RunCache.SetBackend(opts.Store)
	}
	return &worker{opts: opts, epoch: sys.ContentEpoch(), local: local}, nil
}

// RunWorker serves the worker side of the protocol: read jobs from r,
// run each attempt through regress.Local — the in-process matrix's own
// build-and-run path — and write one result frame per job to w. Returns
// nil on a clean EOF (daemon closed the pipe). Attempt-level failures —
// epoch drift, unknown derivative, build errors, a panicking platform —
// are reported in-band; only protocol failures return an error.
func RunWorker(r io.Reader, w io.Writer, opts WorkerOptions) error {
	wk, err := newWorker(opts)
	if err != nil {
		return err
	}
	return wk.serve(NewConn(r, w))
}

// serve is the job loop shared by pipe-mode and TCP-mode workers. Ping
// frames (a daemon probing liveness) are tolerated and ignored.
func (wk *worker) serve(conn *Conn) error {
	for {
		f, err := conn.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if f.Type == FramePing {
			continue
		}
		if f.Type != FrameJob || f.Job == nil {
			return fmt.Errorf("shard: worker expected a job frame, got %q", f.Type)
		}
		res := &Result{ID: f.Job.ID, Req: f.Job.Req, Worker: wk.opts.ID, Run: wk.run(f.Job)}
		if err := conn.Write(Frame{Type: FrameResult, Result: res}); err != nil {
			return err
		}
	}
}

// run executes one job: one attempt of one cell, under the job's
// deadline. A panic costs the attempt, not the worker process.
func (wk *worker) run(job *Job) (run *Run) {
	defer func() {
		if r := recover(); r != nil {
			run = &Run{Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	if job.Epoch != wk.epoch {
		// The worker's content disagrees with what the daemon froze —
		// running would compare incomparable builds.
		return &Run{Err: fmt.Sprintf("epoch drift: worker content is %s, daemon froze %s",
			wk.epoch, job.Epoch)}
	}
	d, err := derivative.ByName(job.Cell.Deriv)
	if err != nil {
		return &Run{Err: err.Error()}
	}
	k, err := ParseKind(job.Cell.Platform)
	if err != nil {
		return &Run{Err: err.Error()}
	}
	eng, err := platform.ParseEngine(job.Engine)
	if err != nil {
		return &Run{Err: err.Error()}
	}
	a := regress.Attempt{
		CellCoord: regress.CellCoord{Module: job.Cell.Module, Test: job.Cell.Test, Deriv: d, Kind: k},
		Epoch:     job.Epoch,
		RunSpec:   platform.RunSpec{MaxInstructions: job.MaxInstructions, MaxCycles: job.MaxCycles, Engine: eng},
		Triage:    job.Triage,
	}
	if job.DeadlineNs > 0 {
		var cancel context.CancelFunc
		a.RunSpec.Context, cancel = context.WithTimeout(context.Background(), time.Duration(job.DeadlineNs))
		defer cancel()
	}
	return fromAttempt(wk.local.Execute(a))
}
