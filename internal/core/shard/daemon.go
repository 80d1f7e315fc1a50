package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/buildcache"
	"repro/internal/core/history"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/sysenv"
)

// DefaultRequestTimeout bounds how long an accepted connection may sit
// idle before its first frame; DefaultPing is the heartbeat interval
// remote workers commit to when they don't choose their own, and
// pingMissFactor is how many missed heartbeats declare a machine dead.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultPing           = 2 * time.Second
	pingMissFactor        = 4
)

// Daemon serves regression requests over a pool of workers: local
// worker processes it spawns itself, plus any remote workers that
// register over TCP (advm-served -connect). It is a router, not a
// scheduler: each request runs regress.Run with the pool as its
// executor, so freezing, the vet preflight, enumeration, history order,
// retries, breakers, quarantine, deadlines, triage and verdict counts
// are the in-process matrix's own code, and each cell's attempts travel
// to whichever worker is free.
//
// Requests are concurrent: every request's attempts feed the same
// dispatch queue and the pool interleaves them, with results routed back
// to their request by (request ID, job ID). The masked journal of each
// stays byte-identical to a serial run regardless of what else shared
// the pool, because journal.Mask restores the canonical record order.
//
// Crash isolation is the point of the process boundary: a local worker
// that dies (OOM, a platform model segfaulting through cgo, a kill -9)
// or never answers within its job's deadline costs exactly its in-flight
// cell, which is reported broken while a replacement worker takes over
// the queue. A remote machine that vanishes (network partition, power
// loss) is detected by missed heartbeats and costs only its in-flight
// cells; the local pool is the liveness floor that always drains the
// queue.
type Daemon struct {
	// NewSystem constructs the daemon's module environments, which each
	// request freezes and schedules over (the daemon never builds a
	// cell).
	NewSystem func() *sysenv.System
	// Workers is the local worker-process pool size (minimum 1 — the
	// local pool guarantees the dispatch queue always drains even if
	// every remote machine vanishes).
	Workers int
	// WorkerCommand builds the command for worker process id. The
	// command must speak the job/result protocol on stdin/stdout —
	// normally the daemon binary re-executing itself with a -worker
	// flag.
	WorkerCommand func(id int) *exec.Cmd
	// History, when non-nil, is every request's regress.Spec.History:
	// dispatch runs longest-expected-first and learns each completed
	// cell's times (saved after every request).
	History *history.Store
	// Store, when non-nil, is served to store-role connections so
	// remote workers warm-start from (and fill back) the daemon's
	// persistent artifact store.
	Store buildcache.Backend
	// RequestTimeout bounds how long an accepted connection may sit
	// idle before its first frame (0 = DefaultRequestTimeout). An idle
	// client costs one connection, never the service.
	RequestTimeout time.Duration
	// Logf, when non-nil, receives daemon progress lines.
	Logf func(format string, args ...any)

	mu         sync.Mutex // guards started/closed, remotes, epoch
	started    bool
	closed     bool
	helloEpoch string
	remotes    map[string]*remoteWorker

	queue  chan *task
	quit   chan struct{}
	wg     sync.WaitGroup // slot + remote loops
	reqSeq atomic.Uint64
	slots  atomic.Int64 // pool size, for Plan.Workers
}

// task is one attempt queued for dispatch: the job, how long to wait for
// its answer (0 = for ever), and the reply channel (buffered, so no pool
// loop ever blocks delivering a result).
type task struct {
	job  *Job
	wait time.Duration
	done chan *Result
}

// workerProc is one live local worker process.
type workerProc struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	conn  *Conn
}

// remoteWorker is one registered remote worker connection.
type remoteWorker struct {
	name string
	nc   net.Conn
	conn *Conn
	ping time.Duration
	// frames carries non-ping frames from the reader goroutine; dead
	// closes when the connection errors or misses its heartbeats.
	frames chan Frame
	dead   chan struct{}
	err    atomic.Value // error string once dead
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Daemon) requestTimeout() time.Duration {
	if d.RequestTimeout > 0 {
		return d.RequestTimeout
	}
	return DefaultRequestTimeout
}

// freezeSystem snapshots every module environment and composes a system
// label — the advm.FreezeSystem recipe.
func freezeSystem(name string, s *sysenv.System) (*release.SystemLabel, error) {
	var subs []*release.Label
	for _, e := range s.Envs() {
		subs = append(subs, release.Snapshot(name+"_"+e.Module, e))
	}
	return release.ComposeSystem(name, s, subs...)
}

// spawn starts worker process id and wires its pipes.
func (d *Daemon) spawn(id int) (*workerProc, error) {
	cmd := d.WorkerCommand(id)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d.logf("worker %d: pid %d", id, cmd.Process.Pid)
	return &workerProc{id: id, cmd: cmd, stdin: stdin, conn: NewConn(stdout, stdin)}, nil
}

// Start spawns the local worker pool and the dispatch machinery.
func (d *Daemon) Start() error {
	if d.NewSystem == nil {
		return fmt.Errorf("shard: daemon needs a NewSystem constructor")
	}
	if d.WorkerCommand == nil {
		return fmt.Errorf("shard: daemon needs a WorkerCommand")
	}
	n := d.Workers
	if n < 1 {
		n = 1
	}
	procs := make([]*workerProc, n)
	for i := 0; i < n; i++ {
		w, err := d.spawn(i)
		if err != nil {
			for _, p := range procs {
				if p != nil {
					p.stdin.Close()
					p.cmd.Wait()
				}
			}
			return fmt.Errorf("shard: spawn worker %d: %w", i, err)
		}
		procs[i] = w
	}
	epoch := d.NewSystem().ContentEpoch()
	d.mu.Lock()
	d.started = true
	d.helloEpoch = epoch
	d.remotes = make(map[string]*remoteWorker)
	d.mu.Unlock()
	d.queue = make(chan *task)
	d.quit = make(chan struct{})
	d.slots.Store(int64(n))
	for i, w := range procs {
		d.wg.Add(1)
		go d.slotLoop(i, w)
	}
	return nil
}

// Close shuts the pool down: it signals every slot and remote loop to
// stop and waits for them, so it synchronises with any in-flight
// request (active requests observe the quit signal and fail their
// clients cleanly; no loop touches a worker process after Close
// returns). Each slot loop closes its own worker's stdin — the
// protocol's EOF — so workers exit cleanly and are reaped.
func (d *Daemon) Close() {
	d.mu.Lock()
	if !d.started || d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	remotes := make([]*remoteWorker, 0, len(d.remotes))
	for _, rw := range d.remotes {
		remotes = append(remotes, rw)
	}
	d.mu.Unlock()
	close(d.quit)
	// Unblock remote reader goroutines parked in conn.Read.
	for _, rw := range remotes {
		rw.nc.Close()
	}
	d.wg.Wait()
}

// PoolSize reports the current dispatch pool size: local slots plus
// registered remote workers. Plans stamp it as Plan.Workers.
func (d *Daemon) PoolSize() int { return int(d.slots.Load()) }

// slotLoop is one local pool slot: it owns its worker process (no other
// goroutine touches it — the ownership is what makes Close race-free),
// drains the shared dispatch queue, and respawns the worker after a
// crash. If a respawn fails the slot keeps draining, breaking its share
// of the queue, so every request still produces a full matrix.
func (d *Daemon) slotLoop(slot int, w *workerProc) {
	defer d.wg.Done()
	defer func() {
		if w != nil {
			w.stdin.Close()
			w.cmd.Wait()
		}
	}()
	for {
		select {
		case <-d.quit:
			return
		case t := <-d.queue:
			if w == nil {
				// A previous respawn failed; try again per task so a
				// transient fork failure doesn't disable the slot for
				// the daemon's lifetime.
				if nw, err := d.spawn(slot); err == nil {
					w = nw
				} else {
					d.logf("respawn worker %d: %v", slot, err)
					t.done <- brokenResult(slot, t.job, "worker unavailable: respawn failed")
					continue
				}
			}
			res, err := runOn(w, t)
			if err != nil {
				d.logf("worker %d crashed on %s: %v", slot, t.job.Cell, err)
				res = brokenResult(slot, t.job, "worker crashed: "+err.Error())
				w.stdin.Close()
				w.cmd.Wait()
				w = nil
				if nw, serr := d.spawn(slot); serr != nil {
					d.logf("respawn worker %d: %v", slot, serr)
				} else {
					w = nw
				}
			}
			t.done <- res
		}
	}
}

// Serve accepts connections until the listener closes. Every connection
// is handled on its own goroutine — a wedged or malicious peer costs
// one connection, never the accept loop — and sorted by its first
// frame: a request frame is a client regression, a hello frame
// registers a remote worker or opens a store channel.
func (d *Daemon) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go d.handleConn(conn)
	}
}

// handleConn reads the connection's first frame under the request-read
// deadline and dispatches on it.
func (d *Daemon) handleConn(nc net.Conn) {
	conn := NewConn(nc, nc)
	nc.SetReadDeadline(time.Now().Add(d.requestTimeout()))
	f, err := conn.Read()
	if err != nil {
		d.logf("read request: %v", err)
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	switch {
	case f.Type == FrameRequest && f.Request != nil:
		defer nc.Close()
		d.handleRequest(conn, f.Request)
	case f.Type == FrameHello && f.Hello != nil && f.Hello.Role == RoleWorker:
		d.handleWorkerConn(nc, conn, f.Hello)
	case f.Type == FrameHello && f.Hello != nil && f.Hello.Role == RoleStore:
		defer nc.Close()
		d.handleStoreConn(nc, conn, f.Hello)
	default:
		conn.Write(Frame{Type: FrameError,
			Error: fmt.Sprintf("shard: expected a request or hello frame, got %q", f.Type)})
		nc.Close()
	}
}

// handshake cross-checks a hello's probe epoch against the daemon's and
// answers with a welcome. A worker whose content disagrees with the
// daemon's is refused at the door: every job it could run would fail
// the per-job epoch check anyway, so fail loudly at registration.
func (d *Daemon) handshake(conn *Conn, h *Hello) error {
	d.mu.Lock()
	epoch := d.helloEpoch
	d.mu.Unlock()
	if h.Role == RoleWorker && h.Epoch != epoch {
		err := fmt.Errorf("shard: epoch mismatch at registration: remote froze %s, daemon froze %s",
			h.Epoch, epoch)
		conn.Write(Frame{Type: FrameError, Error: err.Error()})
		return err
	}
	return conn.Write(Frame{Type: FrameWelcome, Welcome: &Welcome{Epoch: epoch}})
}

// handleWorkerConn registers a remote worker connection and runs its
// dispatch loop until the machine vanishes or the daemon closes.
func (d *Daemon) handleWorkerConn(nc net.Conn, conn *Conn, h *Hello) {
	if err := d.handshake(conn, h); err != nil {
		d.logf("remote worker %s refused: %v", h.Name, err)
		nc.Close()
		return
	}
	ping := time.Duration(h.PingNs)
	if ping <= 0 {
		ping = DefaultPing
	}
	name := h.Name
	if name == "" {
		name = nc.RemoteAddr().String()
	}
	rw := &remoteWorker{name: name, nc: nc, conn: conn, ping: ping,
		frames: make(chan Frame, 4), dead: make(chan struct{})}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		nc.Close()
		return
	}
	// Names index the registry; a re-registering name displaces nothing
	// (the old connection's loop still owns its entry until it dies), so
	// disambiguate. The wg.Add happens under the same lock as the closed
	// check, so Close either waits for this loop or this registration
	// observes closed — never a loop Close doesn't know about.
	for d.remotes[name] != nil {
		name += "+"
	}
	rw.name = name
	d.remotes[name] = rw
	d.wg.Add(1)
	d.slots.Add(1)
	d.mu.Unlock()
	d.logf("remote worker %s joined (ping %s)", rw.name, rw.ping)
	go func() {
		defer d.wg.Done()
		defer func() {
			d.slots.Add(-1)
			d.mu.Lock()
			delete(d.remotes, rw.name)
			d.mu.Unlock()
			nc.Close()
			d.logf("remote worker %s left: %v", rw.name, rw.err.Load())
		}()
		go rw.readLoop()
		d.remoteLoop(rw)
	}()
}

// readLoop pulls frames off the remote connection under a heartbeat
// deadline: each frame (pings included) refreshes the deadline, and a
// deadline expiry — pingMissFactor missed heartbeats — declares the
// machine dead. Pings are drained here so an idle worker's heartbeats
// never back up the socket.
func (rw *remoteWorker) readLoop() {
	defer close(rw.dead)
	for {
		rw.nc.SetReadDeadline(time.Now().Add(pingMissFactor * rw.ping))
		f, err := rw.conn.Read()
		if err != nil {
			rw.err.Store(fmt.Sprintf("connection lost: %v", err))
			return
		}
		if f.Type == FramePing {
			continue
		}
		select {
		case rw.frames <- f:
		case <-time.After(pingMissFactor * rw.ping):
			rw.err.Store("protocol desync: unconsumed frame")
			return
		}
	}
}

// remoteLoop drains the shared dispatch queue onto one remote worker.
// A machine that vanishes mid-cell costs exactly that cell (reported
// broken, like a local crash) and the loop exits — queued cells are
// picked up by the rest of the pool.
func (d *Daemon) remoteLoop(rw *remoteWorker) {
	for {
		select {
		case <-d.quit:
			return
		case <-rw.dead:
			return
		case t := <-d.queue:
			res, err := d.runOnRemote(rw, t)
			if err != nil {
				d.logf("remote worker %s lost on %s: %v", rw.name, t.job.Cell, err)
				t.done <- brokenResult(-1, t.job, "remote worker lost: "+err.Error())
				return
			}
			t.done <- res
		}
	}
}

// runOnRemote sends one job to a remote worker and waits for its result
// frame, bounded by the heartbeat deadline the read loop enforces and by
// the job's own wait.
func (d *Daemon) runOnRemote(rw *remoteWorker, t *task) (*Result, error) {
	job := t.job
	if err := rw.conn.Write(Frame{Type: FrameJob, Job: job}); err != nil {
		return nil, err
	}
	var expired <-chan time.Time
	if t.wait > 0 {
		timer := time.NewTimer(t.wait)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-expired:
		rw.err.Store("no reply within the job deadline")
		rw.nc.Close() // a late reply would desync the stream
		return nil, fmt.Errorf("no reply within %s", t.wait)
	case <-rw.dead:
		if s, ok := rw.err.Load().(string); ok {
			return nil, fmt.Errorf("%s", s)
		}
		return nil, fmt.Errorf("remote worker died")
	case f := <-rw.frames:
		res, err := checkResult(f, job)
		if err != nil {
			rw.err.Store(err.Error())
			rw.nc.Close() // poison the connection: the stream is desynced
			return nil, err
		}
		return res, nil
	}
}

// handleStoreConn serves Get/Put against the daemon's persistent store
// over one connection until EOF. Payload checksums are verified on
// receipt and stamped on replies, so a transport bit-flip degrades to a
// miss on the far side, never a wrong artifact.
func (d *Daemon) handleStoreConn(nc net.Conn, conn *Conn, h *Hello) {
	if err := d.handshake(conn, h); err != nil {
		return
	}
	d.logf("store channel open for %s", nc.RemoteAddr())
	for {
		f, err := conn.Read()
		if err != nil {
			return
		}
		reply := &StoreFrame{}
		switch {
		case f.Type == FramePing:
			continue
		case f.Type == FrameStoreGet && f.Store != nil:
			reply.Key = f.Store.Key
			if d.Store != nil {
				if data, ok := d.Store.Get(f.Store.Key); ok {
					reply.Data, reply.Sum, reply.OK = data, payloadSum(data), true
				}
			}
		case f.Type == FrameStorePut && f.Store != nil:
			reply.Key = f.Store.Key
			switch {
			case d.Store == nil:
				reply.Err = "daemon has no persistent store"
			case payloadSum(f.Store.Data) != f.Store.Sum:
				reply.Err = "payload checksum mismatch in transit"
			case d.Store.Put(f.Store.Key, f.Store.Data) != nil:
				reply.Err = "store put failed"
			default:
				reply.OK = true
			}
		default:
			conn.Write(Frame{Type: FrameError,
				Error: fmt.Sprintf("shard: unexpected %q frame on store channel", f.Type)})
			return
		}
		if err := conn.Write(Frame{Type: FrameStoreData, Store: reply}); err != nil {
			return
		}
	}
}

// payloadSum is the transport checksum store frames carry.
func payloadSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// handleRequest serves one client regression: the request becomes a
// regress.Spec, regress.Run schedules it over the pool, and the run's
// flight records stream back as cells close. Refusals (bad names, vet
// findings, unfrozen content) are an error frame, not a half-run matrix.
func (d *Daemon) handleRequest(conn *Conn, req *Request) {
	fail := func(err error) {
		d.logf("request failed: %v", err)
		conn.Write(Frame{Type: FrameError, Error: err.Error()})
	}
	d.mu.Lock()
	ready := d.started && !d.closed
	d.mu.Unlock()
	if !ready {
		fail(fmt.Errorf("shard: daemon is not serving"))
		return
	}
	if req.Label == "" {
		fail(fmt.Errorf("shard: request needs a label"))
		return
	}
	spec, err := req.Spec()
	if err != nil {
		fail(err)
		return
	}
	sys := d.NewSystem()
	label, err := freezeSystem(req.Label, sys)
	if err != nil {
		fail(err)
		return
	}
	if req.Epoch != "" && req.Epoch != label.Epoch() {
		fail(fmt.Errorf("epoch drift: daemon froze %s, client content is %s", label.Epoch(), req.Epoch))
		return
	}
	r := &request{d: d, id: d.reqSeq.Add(1), conn: conn, ids: map[string]int{}, workers: map[string]int{}}
	spec.Executor = r
	spec.History = d.History
	spec.Journal = r
	spec.Workers = d.PoolSize()
	start := time.Now()
	rep, err := regress.Run(sys, label, spec)
	if err != nil {
		fail(err)
		return
	}
	if d.History != nil {
		if err := d.History.Save(); err != nil {
			d.logf("history save: %v", err)
		}
	}
	done := &Done{Flaky: rep.CountFlaky(), WallNs: time.Since(start).Nanoseconds(), Outcomes: rep.Outcomes}
	done.Passed, done.Failed, done.Broken = rep.Counts()
	r.finish(done)
	d.logf("request %d %s: %d passed, %d failed, %d broken in %s",
		r.id, req.Label, done.Passed, done.Failed, done.Broken, time.Duration(done.WallNs))
}

// request is one client regression in flight. It is the run's Executor —
// each attempt becomes a job on the daemon's shared queue, answered by
// whichever worker takes it — and its journal Sink, which sends every
// record to the client batched into one result frame per closed cell,
// after a plan frame built from the run's header and schedule.
type request struct {
	d    *Daemon
	id   uint64
	conn *Conn
	jobs atomic.Int64

	mu      sync.Mutex
	plan    *Plan
	ids     map[string]int // cell → index in plan.Cells
	workers map[string]int // cell → pool slot that ran its last attempt
	buf     []journal.Record
	sent    bool  // plan frame written
	err     error // first client write error
}

// Execute implements regress.Executor.
func (r *request) Execute(a regress.Attempt) regress.AttemptResult {
	job := &Job{
		ID: int(r.jobs.Add(1)), Req: r.id, Epoch: a.Epoch,
		Cell:            CellID{Module: a.Module, Test: a.Test, Deriv: a.Deriv.Name, Platform: a.Kind.String()},
		MaxInstructions: a.RunSpec.MaxInstructions, MaxCycles: a.RunSpec.MaxCycles,
		Engine: a.RunSpec.Engine.String(), Triage: a.Triage,
	}
	t := &task{job: job, done: make(chan *Result, 1)}
	if ctx := a.RunSpec.Context; ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			// The worker stops the run at the deadline itself; past twice
			// that (and a second for the answer to travel), it is wedged.
			left := time.Until(dl)
			job.DeadlineNs, t.wait = left.Nanoseconds(), 2*left+time.Second
		}
	}
	var res *Result
	select {
	case r.d.queue <- t:
		res = <-t.done
	case <-r.d.quit:
		res = brokenResult(-1, job, "daemon shutting down")
	}
	r.mu.Lock()
	r.workers[job.Cell.String()] = res.Worker
	r.mu.Unlock()
	return res.Run.attemptResult()
}

// Emit implements journal.Sink.
func (r *request) Emit(rec journal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch rec.Kind {
	case journal.KindHeader:
		r.plan = &Plan{Label: rec.Label, Epoch: rec.Epoch, Workers: r.d.PoolSize()}
	case journal.KindSchedule:
		r.ids[rec.CellID()] = len(r.plan.Cells)
		r.plan.Cells = append(r.plan.Cells,
			CellID{Module: rec.Module, Test: rec.Test, Deriv: rec.Deriv, Platform: rec.Platform})
	}
	r.buf = append(r.buf, rec)
	if rec.Kind != journal.KindOutcome {
		return
	}
	worker, ran := r.workers[rec.CellID()]
	if !ran {
		worker = -1
	}
	r.sendPlan()
	r.write(Frame{Type: FrameResult, Result: &Result{ID: r.ids[rec.CellID()], Req: r.id,
		Worker: worker, Records: r.buf}})
	r.buf = nil
}

// finish closes the stream with the done frame, carrying the records
// emitted after the last cell closed.
func (r *request) finish(done *Done) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sendPlan()
	done.Records, r.buf = r.buf, nil
	r.write(Frame{Type: FrameDone, Done: done})
}

func (r *request) sendPlan() {
	if !r.sent {
		r.sent = true
		r.write(Frame{Type: FramePlan, Plan: r.plan})
	}
}

// write sends one frame. A vanished client does not stop the matrix —
// its results still reach the history store — but only the first write
// error is logged.
func (r *request) write(f Frame) {
	if r.err != nil {
		return
	}
	if r.err = r.conn.Write(f); r.err != nil {
		r.d.logf("request %d: client gone: %v", r.id, r.err)
	}
}

// runOn sends one job to a local worker and waits for its result. Any
// transport error — the worker dying mid-cell, or killed for not
// answering within the task's wait — is returned for the caller to
// translate into a broken cell.
func runOn(w *workerProc, t *task) (*Result, error) {
	var timer *time.Timer
	if t.wait > 0 {
		timer = time.AfterFunc(t.wait, func() { w.cmd.Process.Kill() })
	}
	// killed stops the timer and reports whether it had already fired.
	// Once it has, the worker is (or is about to be) dead even if an
	// answer raced the kill, so the caller must respawn it either way.
	killed := func() bool { return timer != nil && !timer.Stop() }
	if err := w.conn.Write(Frame{Type: FrameJob, Job: t.job}); err != nil {
		killed()
		return nil, err
	}
	f, err := w.conn.Read()
	if killed() {
		return nil, fmt.Errorf("no reply within %s; worker killed", t.wait)
	}
	if err != nil {
		return nil, err
	}
	return checkResult(f, t.job)
}

// checkResult validates that a frame is the result for exactly the job
// in flight: with concurrent requests sharing the pool, a worker that
// echoes the wrong (request, job) pair has desynced its stream and must
// be treated as crashed, never routed to the wrong request.
func checkResult(f Frame, job *Job) (*Result, error) {
	if f.Type != FrameResult || f.Result == nil || f.Result.Run == nil {
		return nil, fmt.Errorf("shard: worker sent %q, want result", f.Type)
	}
	if f.Result.Req != job.Req || f.Result.ID != job.ID {
		return nil, fmt.Errorf("shard: worker answered req %d job %d, want req %d job %d",
			f.Result.Req, f.Result.ID, job.Req, job.ID)
	}
	return f.Result, nil
}

// brokenResult manufactures the answer for a job whose worker died or
// went silent under it: the attempt fails with msg, which the scheduler
// reports as the cell's BuildErr.
func brokenResult(worker int, job *Job, msg string) *Result {
	return &Result{ID: job.ID, Req: job.Req, Worker: worker, Run: &Run{Err: msg}}
}
