package regress

import (
	"fmt"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/runcache"
	"repro/internal/core/sysenv"
	"repro/internal/core/telemetry"
	"repro/internal/obj"
	"repro/internal/platform"
	"repro/internal/soc"
)

// Executor runs one attempt of one matrix cell: build, construct, load,
// run. It is the seam between the scheduler — Run, which owns retries,
// backoff, breakers, quarantine, deadlines, triage, history and the
// journal — and wherever the cell's platform lives: this process
// (Local), a worker process, or another machine. Implementations must be
// safe for concurrent use; Run calls Execute from its worker goroutines.
type Executor interface {
	Execute(Attempt) AttemptResult
}

// Attempt is one try at one cell, as the scheduler hands it over.
type Attempt struct {
	CellCoord
	// Epoch is the frozen release's content epoch: the build cache and
	// the run cache key every artifact by it.
	Epoch string
	// RunSpec bounds the run. Its Context carries the attempt deadline
	// and the matrix cancellation; an executor across a process boundary
	// enforces the deadline on the far side and gives up on a far side
	// that never answers.
	RunSpec platform.RunSpec
	// Triage asks for a first-divergence replay of the (failing) cell
	// against a reference instead of a run.
	Triage bool
}

// AttemptResult is what one attempt produced, timed where the work
// happened.
type AttemptResult struct {
	// Result is the run's result; nil when Err is set or for a triage
	// replay.
	Result *platform.Result
	Err    error
	// BuildNanos and RunNanos are the wall times spent building the
	// image and constructing, loading and running the platform. A run
	// cache hit costs RunNanos of lookup and no build.
	BuildNanos int64
	RunNanos   int64
	// RunCached reports that the run cache served the result.
	RunCached bool
	// Triage is the replay's artifact when Attempt.Triage was set.
	Triage *Triage
}

// Local executes attempts in this process: the build goes through the
// build cache, and pure attempts of deterministic kinds through the run
// cache. Run uses one over the spec's caches when Spec.Executor is nil;
// a shard worker process runs one for every job it is sent.
type Local struct {
	System   *sysenv.System
	Cache    *buildcache.Cache
	RunCache *runcache.Cache
	Metrics  *telemetry.Registry
	// NewPlatform overrides platform instantiation for runs and triage
	// replays (nil means platform.New).
	NewPlatform func(platform.Kind, soc.HWConfig) (platform.Platform, error)
}

// Execute implements Executor.
func (l *Local) Execute(a Attempt) (ar AttemptResult) {
	bc := sysenv.BuildContext{Cache: l.Cache, Epoch: a.Epoch, Metrics: l.Metrics}
	build := func() (*obj.Image, error) {
		t0 := time.Now()
		img, err := l.System.BuildTestWith(bc, a.Module, a.Test, a.Deriv, a.Kind)
		ar.BuildNanos += time.Since(t0).Nanoseconds()
		return img, err
	}
	newPlat := l.NewPlatform
	if newPlat == nil {
		newPlat = platform.New
	}
	if a.Triage {
		img, err := build()
		if err != nil {
			ar.Err = fmt.Errorf("rebuild: %w", err)
			return ar
		}
		// Under a fault-injection harness the reference is a pristine
		// instance of the subject's own kind: cycle-identical, so the
		// first divergence is the injected fault, not a timing loop.
		ref := platform.KindGolden
		if l.NewPlatform != nil {
			ref = a.Kind
		}
		ar.Triage, ar.Err = triageCell(img, a.Deriv.HW, a.Kind, ref, newPlat, a.RunSpec)
		return ar
	}
	run := func() (*platform.Result, error) {
		img, err := build()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		defer func() { ar.RunNanos += time.Since(t1).Nanoseconds() }()
		p, err := newPlat(a.Kind, a.Deriv.HW)
		if err != nil {
			return nil, err
		}
		if err := p.Load(img); err != nil {
			return nil, err
		}
		return p.Run(a.RunSpec)
	}
	// The run cache only memoises pure runs: stock instantiation (a
	// harness may inject faults), no observers (trace callbacks and event
	// sinks are side effects a cached replay would silently drop), and no
	// context — a StopCancelled outcome reflects this host's deadline,
	// not the image, and must never be replayed. It keys cells by (epoch,
	// cell coordinates, kind, config, bounds), so a warm hit skips the
	// build as well as the simulation.
	pure := l.NewPlatform == nil && a.RunSpec.Trace == nil && a.RunSpec.Events == nil && a.RunSpec.Context == nil
	if pure && l.RunCache != nil && runcache.Cacheable(a.Kind) {
		tc := time.Now()
		ar.Result, ar.RunCached, ar.Err = l.RunCache.Do(
			runcache.OutcomeKey(a.Epoch, a.Module, a.Test, a.Deriv.Name, a.Kind, a.Deriv.HW, a.RunSpec), run)
		if ar.RunCached {
			ar.RunNanos = time.Since(tc).Nanoseconds()
		}
		return ar
	}
	if l.RunCache != nil {
		l.RunCache.Bypass()
	}
	ar.Result, ar.Err = run()
	return ar
}
