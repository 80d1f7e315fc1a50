package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core/castore"
	"repro/internal/core/content"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/shard"
	"repro/internal/core/sysenv"
	"repro/internal/flaky"
	"repro/internal/platform"

	_ "repro/internal/bondout"
	_ "repro/internal/emu"
	_ "repro/internal/gate"
	_ "repro/internal/golden"
	_ "repro/internal/rtl"
	_ "repro/internal/silicon"
)

// TestShardWorkerProcess is not a test: it is the worker process the
// daemon tests re-execute this binary into. The env guard keeps it
// silent in a normal test run.
func TestShardWorkerProcess(t *testing.T) {
	if os.Getenv("SHARD_WORKER_HELPER") != "1" {
		t.Skip("worker helper process")
	}
	// Crash injection: if the flag file exists, delete it and die hard
	// mid-protocol — the daemon must break the in-flight cell and
	// respawn. The delete makes the replacement worker healthy.
	if flag := os.Getenv("SHARD_WORKER_CRASH_FLAG"); flag != "" {
		if _, err := os.Stat(flag); err == nil {
			os.Remove(flag)
			os.Exit(3)
		}
	}
	// Wedge injection: a worker that never answers its first job, as a
	// platform model stuck outside any context check would. The daemon
	// must give up on it at the job deadline, kill and respawn it.
	if flag := os.Getenv("SHARD_WORKER_WEDGE_FLAG"); flag != "" {
		if _, err := os.Stat(flag); err == nil {
			os.Remove(flag)
			time.Sleep(time.Hour)
		}
	}
	id, _ := strconv.Atoi(os.Getenv("SHARD_WORKER_ID"))
	opts := shard.WorkerOptions{ID: id, NewSystem: content.PortedSystem}
	// Fault injection: the worker's platforms run under a flaky plan.
	switch os.Getenv("SHARD_WORKER_FAULT") {
	case "transient":
		opts.NewPlatform = flaky.New(transientPlan).NewPlatform
	case "hang":
		opts.NewPlatform = flaky.New(hangPlan).NewPlatform
	}
	if dir := os.Getenv("SHARD_WORKER_STORE"); dir != "" {
		store, err := castore.Open(dir, castore.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker store:", err)
			os.Exit(1)
		}
		defer store.Close()
		opts.Store = store
	}
	if err := shard.RunWorker(os.Stdin, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// testWorkerCommand re-executes this test binary as a pool worker
// process (TestShardWorkerProcess), with extra env for fault injection.
func testWorkerCommand(env ...string) func(id int) *exec.Cmd {
	return func(id int) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestShardWorkerProcess$")
		cmd.Env = append(os.Environ(),
			"SHARD_WORKER_HELPER=1",
			"SHARD_WORKER_ID="+strconv.Itoa(id))
		cmd.Env = append(cmd.Env, env...)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// startDaemon spins up a daemon with n re-exec'd worker processes and a
// unix-socket listener, returning the socket path.
func startDaemon(t *testing.T, n int, env ...string) string {
	t.Helper()
	d := &shard.Daemon{
		NewSystem:     content.PortedSystem,
		Workers:       n,
		WorkerCommand: testWorkerCommand(env...),
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	sock := filepath.Join(t.TempDir(), "advm.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go d.Serve(l)
	return sock
}

func TestFrameRoundtrip(t *testing.T) {
	pr, pw := io.Pipe()
	conn := shard.NewConn(pr, pw)
	frames := []shard.Frame{
		{Type: shard.FrameRequest, Request: &shard.Request{Label: "r1", Platforms: []string{"golden"}}},
		{Type: shard.FramePlan, Plan: &shard.Plan{Label: "r1", Epoch: "e", Workers: 2,
			Cells: []shard.CellID{{Module: "NVM", Test: "T", Deriv: "SC88-A", Platform: "golden"}}}},
		{Type: shard.FrameJob, Job: &shard.Job{ID: 3, Req: 1, Epoch: "e",
			Cell: shard.CellID{Module: "NVM", Test: "T", Deriv: "SC88-A", Platform: "golden"}}},
		{Type: shard.FrameResult, Result: &shard.Result{ID: 3, Req: 1, Worker: 1,
			Run: &shard.Run{Result: &platform.Result{Reason: platform.StopHalt, MboxDone: true, Cycles: 9}}}},
		{Type: shard.FrameResult, Result: &shard.Result{ID: 0, Worker: 1,
			Records: []journal.Record{{Kind: journal.KindStart, Module: "NVM", Seq: 7}}}},
		{Type: shard.FrameDone, Done: &shard.Done{Passed: 1}},
		{Type: shard.FrameError, Error: "boom"},
	}
	go func() {
		for _, f := range frames {
			if err := conn.Write(f); err != nil {
				t.Error(err)
			}
		}
		pw.Close()
	}()
	for i, want := range frames {
		got, err := conn.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("frame %d: type %q, want %q", i, got.Type, want.Type)
		}
	}
	if _, err := conn.Read(); err != io.EOF {
		t.Fatalf("after close: %v, want EOF", err)
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"golden", "rtl", "gate", "emulator", "bondout", "silicon"} {
		k, err := shard.ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Fatalf("ParseKind(%q).String() = %q", name, k)
		}
	}
	if _, err := shard.ParseKind("abacus"); err == nil {
		t.Fatal("unknown kind parsed")
	}
}

// TestShardedMatchesSerial is the heart of the sharded determinism
// story on a small matrix: the same frozen spec run serially in-process
// and sharded across two worker processes must produce identical
// outcome tables and byte-identical masked journals.
func TestShardedMatchesSerial(t *testing.T) {
	sock := startDaemon(t, 2)
	req := shard.Request{
		Label:     "shard-vs-serial",
		Modules:   []string{"UART"},
		Platforms: []string{"golden", "emulator"},
		SkipVet:   true,
	}
	reply, err := shard.Regress(sock, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(reply.Outcomes); n != 4*4*2 {
		t.Fatalf("sharded ran %d cells", n)
	}

	// The serial reference: same frozen spec, in-process, one worker.
	sys := content.PortedSystem()
	label := freeze(t, "shard-vs-serial", sys)
	golden, _ := shard.ParseKind("golden")
	emulator, _ := shard.ParseKind("emulator")
	var serialBuf bytes.Buffer
	jw := journal.NewWriter(&serialBuf)
	serial, err := regress.Run(sys, label, regress.Spec{
		Modules: []string{"UART"},
		Kinds:   []platform.Kind{golden, emulator},
		SkipVet: true,
		Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// Outcome tables must agree cell for cell (wall-clock excluded):
	// the certification-bundle form is exactly that comparison.
	wantCells, _ := json.Marshal(serial.BundleCells())
	gotCells, _ := json.Marshal(reply.Report().BundleCells())
	if !bytes.Equal(wantCells, gotCells) {
		t.Fatalf("outcome tables diverge:\nserial:  %s\nsharded: %s", wantCells, gotCells)
	}

	// Masked journals must be byte-identical.
	var shardBuf bytes.Buffer
	sw := journal.NewWriter(&shardBuf)
	for _, r := range reply.Journal {
		sw.Emit(r)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	wantJ, err := journal.Mask(serialBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gotJ, err := journal.Mask(shardBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJ, gotJ) {
		t.Fatalf("masked journals diverge:\n--- serial ---\n%s\n--- sharded ---\n%s", wantJ, gotJ)
	}
}

// freeze composes a system release label the way advm.FreezeSystem
// does.
func freeze(t testing.TB, name string, sys *sysenv.System) *release.SystemLabel {
	t.Helper()
	var subs []*release.Label
	for _, e := range sys.Envs() {
		subs = append(subs, release.Snapshot(name+"_"+e.Module, e))
	}
	label, err := release.ComposeSystem(name, sys, subs...)
	if err != nil {
		t.Fatal(err)
	}
	return label
}

func TestWorkerCrashIsolation(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crash")
	if err := os.WriteFile(flag, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sock := startDaemon(t, 1, "SHARD_WORKER_CRASH_FLAG="+flag)
	req := shard.Request{
		Label:     "crash",
		Modules:   []string{"SECURITY"},
		Derivs:    []string{"SC88-A"},
		Platforms: []string{"golden"},
		SkipVet:   true,
	}
	reply, err := shard.Regress(sock, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Outcomes) != 3 {
		t.Fatalf("ran %d cells", len(reply.Outcomes))
	}
	crashed, passed := 0, 0
	for _, o := range reply.Outcomes {
		switch {
		case o.BuildErr != "":
			crashed++
		case o.Passed:
			passed++
		}
	}
	if crashed != 1 || passed != 2 {
		t.Fatalf("crashed=%d passed=%d, want exactly one broken cell and the rest passed: %+v",
			crashed, passed, reply.Outcomes)
	}
	if reply.Done.Broken != 1 || reply.Done.Passed != 2 {
		t.Fatalf("done counts = %+v", reply.Done)
	}
}
