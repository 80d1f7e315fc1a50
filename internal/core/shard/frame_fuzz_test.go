package shard_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/shard"
	"repro/internal/platform"
)

// capturedFrames returns the seed corpus: a client request, a worker
// hello, a job and the result a worker answered it with — one real cell
// run through RunWorker — and the plan and done frames a daemon would
// send around that cell.
func capturedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(f shard.Frame) []byte {
		var buf bytes.Buffer
		if err := shard.NewConn(nil, &buf).Write(f); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	sys := content.PortedSystem()
	env, _ := sys.Env("SECURITY")
	cell := shard.CellID{Module: "SECURITY", Test: env.TestIDs()[0], Deriv: "SC88-A", Platform: "golden"}
	job := encode(shard.Frame{Type: shard.FrameJob, Job: &shard.Job{
		ID: 1, Req: 1, Epoch: sys.ContentEpoch(), Cell: cell,
		Engine: "translate",
	}})
	var result bytes.Buffer
	if err := shard.RunWorker(bytes.NewReader(job), &result, shard.WorkerOptions{NewSystem: content.PortedSystem}); err != nil {
		tb.Fatal(err)
	}
	rec := journal.Record{Kind: journal.KindOutcome, Module: cell.Module, Test: cell.Test,
		Deriv: cell.Deriv, Platform: cell.Platform, Attempt: 1, Status: journal.StatusPassed}
	return [][]byte{
		encode(shard.Frame{Type: shard.FrameRequest, Request: &shard.Request{
			Label: "fuzz", Derivs: []string{"SC88-A"}, Platforms: []string{"golden", "emulator"},
			DeadlineNs: 3e10, Retries: 2, Breaker: 5, QuarantineAfter: 2, Triage: true,
		}}),
		encode(shard.Frame{Type: shard.FrameHello, Hello: &shard.Hello{
			Role: shard.RoleWorker, Name: "machine2/0", Epoch: "e", PingNs: 2e9}}),
		job,
		result.Bytes(),
		encode(shard.Frame{Type: shard.FramePlan, Plan: &shard.Plan{Label: "fuzz", Epoch: "e", Workers: 2,
			Cells: []shard.CellID{cell}}}),
		encode(shard.Frame{Type: shard.FrameResult, Result: &shard.Result{ID: 0, Req: 1, Worker: 1,
			Records: []journal.Record{rec}}}),
		encode(shard.Frame{Type: shard.FrameDone, Done: &shard.Done{Passed: 1, WallNs: 5e6,
			Outcomes: []regress.Outcome{{Module: cell.Module, Test: cell.Test, Derivative: cell.Deriv,
				Platform: platform.KindGolden, Passed: true, Reason: platform.StopHalt, Attempts: 1}},
			Records: []journal.Record{{Kind: journal.KindEnd, Passed: 1}}}}),
	}
}

// FuzzFrameRead feeds arbitrary bytes to the frame decoder every
// connection reads through: each Read must return a frame or an error —
// never panic, never hang — and any frame it returns must re-encode.
func FuzzFrameRead(f *testing.F) {
	seeds := capturedFrames(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(bytes.Join(seeds, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := shard.NewConn(bytes.NewReader(data), io.Discard)
		for {
			fr, err := conn.Read()
			if err != nil {
				return
			}
			if _, err := json.Marshal(fr); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}
	})
}
