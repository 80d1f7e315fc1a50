// Package shard lifts the regression matrix across the process
// boundary. It adds no scheduler of its own: a daemon runs
// regress.Run — the one scheduler, with its retries, breakers,
// quarantine, deadlines, triage, history order and journal — over an
// Executor that sends each attempt of each cell to a pool of workers:
// local worker processes it spawns, plus remote machines that register
// over TCP. A worker runs the attempt through regress.Local, the same
// code the in-process matrix runs, and answers with what it measured.
// The daemon streams the run's flight records to the client as cells
// close and ends with the report.
//
// The protocol is JSONL frames over any byte stream — a unix or TCP
// socket between client and daemon, stdin/stdout pipes between daemon
// and workers. One frame type per line, tagged by "type":
//
//	client → daemon:  request
//	daemon → client:  plan, result*, done   (or error)
//	daemon → worker:  job*                  (one attempt of one cell)
//	worker → daemon:  result*               (exactly one per job)
//
// Fleet extensions (the multi-machine phase): a remote process opens a
// TCP connection and registers with a hello frame — role "worker" joins
// the daemon's dispatch pool, role "store" opens a fetch-through
// channel to the daemon's persistent artifact store:
//
//	remote → daemon:  hello{role,epoch,ping}
//	daemon → remote:  welcome{epoch}          (or error, and close)
//	worker → daemon:  ping* interleaved with result*
//	store:            store-get/store-put in, store-data out
//
// Every job carries the frozen-spec epoch — the content hash of the
// module environments the daemon froze — and the worker refuses a job
// whose epoch its own frozen system does not reproduce: two processes
// that disagree about the source content must fail loudly, not compare
// incomparable runs. Per-cell isolation falls out of the process
// boundary: a crashed worker costs its in-flight cell (reported broken,
// like a panicking platform in the in-process pool) and the daemon
// respawns the worker for the rest of the queue.
package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/core/derivative"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/resilience"
	"repro/internal/platform"
)

// Frame type tags.
const (
	FrameRequest = "request"
	FramePlan    = "plan"
	FrameJob     = "job"
	FrameResult  = "result"
	FrameDone    = "done"
	FrameError   = "error"
	// Fleet frames: a remote process introduces itself with a hello
	// (role + content epoch), the daemon answers with a welcome,
	// and the remote side pings periodically so a vanished machine is
	// distinguishable from a long-running cell.
	FrameHello   = "hello"
	FrameWelcome = "welcome"
	FramePing    = "ping"
	// Store frames: Get/Put against the daemon's persistent artifact
	// store, multiplexed over a dedicated store-role connection.
	FrameStoreGet  = "store-get"
	FrameStorePut  = "store-put"
	FrameStoreData = "store-data"
)

// Connection roles a hello frame can announce.
const (
	// RoleWorker joins the daemon's dispatch pool: the daemon writes
	// job frames at the connection and reads result frames (and pings)
	// back.
	RoleWorker = "worker"
	// RoleStore opens a fetch-through channel to the daemon's
	// persistent artifact store: store-get/store-put in, store-data out.
	RoleStore = "store"
)

// Frame is the one-of JSONL envelope: Type selects which payload field
// is set.
type Frame struct {
	Type    string      `json:"type"`
	Request *Request    `json:"request,omitempty"`
	Plan    *Plan       `json:"plan,omitempty"`
	Job     *Job        `json:"job,omitempty"`
	Result  *Result     `json:"result,omitempty"`
	Done    *Done       `json:"done,omitempty"`
	Error   string      `json:"error,omitempty"`
	Hello   *Hello      `json:"hello,omitempty"`
	Welcome *Welcome    `json:"welcome,omitempty"`
	Store   *StoreFrame `json:"store,omitempty"`
}

// Hello registers a remote connection with the daemon. Epoch is the
// sender's content epoch — the hash every frozen label of its module
// environments carries; the daemon refuses a worker whose content
// disagrees with its own at the door, instead of per job.
type Hello struct {
	Role string `json:"role"`
	// Name identifies the remote machine/slot in daemon logs.
	Name  string `json:"name,omitempty"`
	Epoch string `json:"epoch,omitempty"`
	// PingNs is the heartbeat interval the worker commits to. The
	// daemon declares the worker dead after missing several of them.
	PingNs int64 `json:"ping_ns,omitempty"`
}

// Welcome acknowledges a hello, echoing the daemon's own content epoch.
type Welcome struct {
	Epoch string `json:"epoch,omitempty"`
}

// StoreFrame carries one store operation or its reply. Sum is the hex
// SHA-256 of Data, verified on receipt in both directions: the store's
// keys are content addresses over *inputs*, so the payload needs its
// own transport checksum.
type StoreFrame struct {
	Key  string `json:"key"`
	Data []byte `json:"data,omitempty"`
	Sum  string `json:"sum,omitempty"`
	OK   bool   `json:"ok,omitempty"`
	Err  string `json:"err,omitempty"`
}

// Request asks the daemon for one regression matrix. Selections are
// by name (the client may not share memory with the daemon); empty
// slices mean the matrix defaults (whole family, all platforms, all
// modules and tests). The execution policy fields carry the values of
// advm-regress's flags of the same names.
type Request struct {
	// Label is the release-label name the daemon freezes the matrix
	// under.
	Label     string   `json:"label"`
	Derivs    []string `json:"derivs,omitempty"`
	Platforms []string `json:"platforms,omitempty"`
	Modules   []string `json:"modules,omitempty"`
	Tests     []string `json:"tests,omitempty"`
	// MaxInstructions and MaxCycles bound each cell's run.
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxCycles       uint64 `json:"max_cycles,omitempty"`
	// Engine names the simulator execution engine (empty = default).
	Engine string `json:"engine,omitempty"`
	// SkipVet disables the daemon's static-analysis preflight gate.
	SkipVet bool `json:"skip_vet,omitempty"`
	// DeadlineNs is the per-attempt wall-clock budget (0 = unbounded).
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	// Retries is the extra attempts a transiently failing cell on a
	// physical kind gets.
	Retries int `json:"retries,omitempty"`
	// Breaker opens a physical kind's circuit breaker after this many
	// consecutive transient failures (0 = off).
	Breaker int `json:"breaker,omitempty"`
	// QuarantineAfter benches a cell after this many flaky runs within
	// the request (0 = off).
	QuarantineAfter int `json:"quarantine_after,omitempty"`
	// Triage replays each failing cell against a reference; the
	// artifacts come back in the report's outcomes.
	Triage bool `json:"triage,omitempty"`
	// Epoch, when set, is the content epoch the client froze locally:
	// a daemon whose own freeze differs refuses the request before
	// running or sending anything, since its verdicts would describe
	// someone else's sources.
	Epoch string `json:"epoch,omitempty"`
}

// Spec resolves the request into the regression spec it asks for:
// selections, run bounds and execution policy. Caches, history, the
// journal and the executor are the runner's to add. advm-regress builds
// its in-process spec the same way, so a flag means the same thing in
// both modes.
func (r *Request) Spec() (regress.Spec, error) {
	spec := regress.Spec{
		Modules: r.Modules, Tests: r.Tests, SkipVet: r.SkipVet,
		Deadline: time.Duration(r.DeadlineNs),
		// A tripped breaker fast-fails 8 cells before a half-open probe.
		Breakers:   resilience.NewBreakerSet(r.Breaker, 8),
		Quarantine: resilience.NewQuarantine(r.QuarantineAfter),
		Triage:     r.Triage,
	}
	if r.Retries > 0 {
		spec.Retry = resilience.RetryPolicy{MaxAttempts: r.Retries + 1,
			BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}
	}
	for _, name := range r.Derivs {
		d, err := derivative.ByName(name)
		if err != nil {
			return spec, err
		}
		spec.Derivatives = append(spec.Derivatives, d)
	}
	for _, name := range r.Platforms {
		k, err := ParseKind(name)
		if err != nil {
			return spec, err
		}
		spec.Kinds = append(spec.Kinds, k)
	}
	eng, err := platform.ParseEngine(r.Engine)
	if err != nil {
		return spec, err
	}
	spec.RunSpec = platform.RunSpec{MaxInstructions: r.MaxInstructions, MaxCycles: r.MaxCycles, Engine: eng}
	return spec, nil
}

// CellID names one matrix cell on the wire.
type CellID struct {
	Module   string `json:"module"`
	Test     string `json:"test"`
	Deriv    string `json:"deriv"`
	Platform string `json:"platform"`
}

// String renders the resilience CellKey format.
func (c CellID) String() string {
	return c.Module + "/" + c.Test + "@" + c.Deriv + "/" + c.Platform
}

// Plan opens a daemon's answer to a request, before any result: the
// frozen epoch, the pool size, and the cells in dispatch order (the run's
// schedule records). Result IDs index Cells.
type Plan struct {
	Label   string   `json:"label"`
	Epoch   string   `json:"epoch"`
	Workers int      `json:"workers"`
	Cells   []CellID `json:"cells"`
}

// Job asks a worker for one attempt of one cell.
type Job struct {
	// ID numbers the job within its request.
	ID int `json:"id"`
	// Req is the daemon-assigned request ID the job belongs to. With
	// concurrent requests interleaving across one pool, the worker
	// echoes (Req, ID) into its result, and a mismatched echo is a
	// protocol desync, treated like a crash.
	Req uint64 `json:"req,omitempty"`
	// Epoch is the daemon's frozen-spec epoch; the worker verifies its
	// own system reproduces it before running.
	Epoch           string `json:"epoch"`
	Cell            CellID `json:"cell"`
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxCycles       uint64 `json:"max_cycles,omitempty"`
	Engine          string `json:"engine,omitempty"`
	// DeadlineNs is what is left of the attempt's deadline; Triage asks
	// for the cell's first-divergence replay instead of a run.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	Triage     bool  `json:"triage,omitempty"`
}

// Run is a worker's answer to a job: the wire form of
// regress.AttemptResult, timed in the worker.
type Run struct {
	Result *platform.Result `json:"result,omitempty"`
	// Err is the attempt's error; Transient marks a
	// resilience.TransientError, which the scheduler retries.
	Err        string          `json:"err,omitempty"`
	Transient  bool            `json:"transient,omitempty"`
	BuildNanos int64           `json:"build_ns,omitempty"`
	RunNanos   int64           `json:"run_ns,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Triage     *regress.Triage `json:"triage,omitempty"`
}

// fromAttempt converts an attempt result to its wire form.
func fromAttempt(ar regress.AttemptResult) *Run {
	r := &Run{BuildNanos: ar.BuildNanos, RunNanos: ar.RunNanos, Cached: ar.RunCached, Triage: ar.Triage}
	if ar.Err != nil {
		r.Err, r.Transient = ar.Err.Error(), resilience.IsTransient(ar.Err)
	}
	if ar.Result != nil {
		// The scheduler reads the verdict fields only; the console,
		// checkpoints and final state stay in the worker.
		res := *ar.Result
		res.Console, res.Checkpoints, res.State = "", nil, nil
		r.Result = &res
	}
	return r
}

// attemptResult converts a worker's answer back. A transient error
// keeps its class across the wire, and its message is unchanged.
func (r *Run) attemptResult() regress.AttemptResult {
	ar := regress.AttemptResult{Result: r.Result, BuildNanos: r.BuildNanos, RunNanos: r.RunNanos,
		RunCached: r.Cached, Triage: r.Triage}
	switch {
	case r.Transient:
		ar.Err = resilience.Transient(errors.New(strings.TrimPrefix(r.Err, "transient: ")))
	case r.Err != "":
		ar.Err = errors.New(r.Err)
	case r.Result == nil && r.Triage == nil:
		ar.Err = errors.New("shard: worker answered with neither a result nor an error")
	}
	return ar
}

// Result is one of two answers. From a worker it answers a job: Run is
// the attempt. From the daemon it closes cell ID of the plan: Records
// are the flight records the run emitted since the previous result —
// that cell's, and any other cell's still in flight — and Worker is the
// pool slot that ran the cell's last attempt (-1 if it never ran).
type Result struct {
	ID int `json:"id"`
	// Req echoes the job's request ID (see Job.Req).
	Req     uint64           `json:"req,omitempty"`
	Worker  int              `json:"worker"`
	Run     *Run             `json:"run,omitempty"`
	Records []journal.Record `json:"records,omitempty"`
}

// Done closes a daemon's result stream: the verdict counts, the
// report's outcomes in enumeration order, and the records the run
// emitted after its last cell closed (the end record among them).
type Done struct {
	Passed   int               `json:"passed"`
	Failed   int               `json:"failed"`
	Broken   int               `json:"broken"`
	Flaky    int               `json:"flaky"`
	WallNs   int64             `json:"wall_ns"`
	Outcomes []regress.Outcome `json:"outcomes,omitempty"`
	Records  []journal.Record  `json:"records,omitempty"`
}

// ParseKind resolves a platform-kind name from the wire. Every kind on
// the ladder parses, registered on this build or not — registration is
// checked where the platform is instantiated.
func ParseKind(name string) (platform.Kind, error) {
	for _, k := range []platform.Kind{platform.KindGolden, platform.KindRTL,
		platform.KindGate, platform.KindEmulator, platform.KindBondout, platform.KindSilicon} {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("shard: unknown platform kind %q", name)
}

// Conn frames JSONL messages over a byte stream. Writes are mutexed so
// concurrent senders (the daemon's worker loops share the client
// connection) interleave whole frames, never bytes. Reads are
// single-consumer.
type Conn struct {
	wmu sync.Mutex
	w   *bufio.Writer
	sc  *bufio.Scanner
}

// NewConn wraps a read and a write stream (one net.Conn, or a pipe
// pair).
func NewConn(r io.Reader, w io.Writer) *Conn {
	sc := bufio.NewScanner(r)
	// Result frames carry journal records and console detail; a frame
	// is bounded far below this, but be generous.
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	return &Conn{w: bufio.NewWriter(w), sc: sc}
}

// Write sends one frame, flushed immediately — the protocol streams.
func (c *Conn) Write(f Frame) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("shard: encode %s frame: %w", f.Type, err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}

// Read receives the next frame; io.EOF at a clean end of stream.
func (c *Conn) Read() (Frame, error) {
	for c.sc.Scan() {
		line := c.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return Frame{}, fmt.Errorf("shard: malformed frame: %w", err)
		}
		return f, nil
	}
	if err := c.sc.Err(); err != nil {
		return Frame{}, err
	}
	return Frame{}, io.EOF
}
