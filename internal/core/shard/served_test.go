package shard_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core/content"
	"repro/internal/core/journal"
	"repro/internal/core/regress"
	"repro/internal/core/shard"
	"repro/internal/flaky"
	"repro/internal/platform"
)

// The fault plans the worker helper process arms from SHARD_WORKER_FAULT,
// shared with the in-process references below.
var (
	// transientPlan fails every cell's first run with a transient error.
	transientPlan = flaky.Plan{Fault: flaky.FaultTransient, FailFirst: 1}
	// hangPlan wedges every run until its context deadline.
	hangPlan = flaky.Plan{Fault: flaky.FaultHang, FailFirst: 1 << 20}
)

// emulatorRequest is the served robustness tests' slice: the physical
// emulator rung, where retries apply.
func emulatorRequest(label string) shard.Request {
	return shard.Request{
		Label: label, Modules: []string{"NVM"}, Derivs: []string{"SC88-A"},
		Platforms: []string{"emulator"}, SkipVet: true,
	}
}

// maskedRecords writes records through a journal writer and masks them.
func maskedRecords(t *testing.T, recs []journal.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	for _, r := range recs {
		w.Emit(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	masked, err := journal.Mask(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return masked
}

// TestServedRetriesMatchInProcess: a worker process whose platforms fail
// each cell's first run transiently, behind a daemon asked for one retry,
// gives the same flaky outcomes and masked journal as the in-process run
// under the same fault plan — retries, backoff and flaky reporting are
// the one scheduler's, wherever the attempts run.
func TestServedRetriesMatchInProcess(t *testing.T) {
	sock := startDaemon(t, 1, "SHARD_WORKER_FAULT=transient")
	req := emulatorRequest("served-retries")
	req.Retries = 1
	reply, err := shard.Regress(sock, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Outcomes) == 0 {
		t.Fatal("empty matrix")
	}
	for _, o := range reply.Outcomes {
		if !o.Flaky || o.Attempts != 2 || o.Passed || o.BuildErr != "" {
			t.Fatalf("%s/%s: flaky=%v attempts=%d passed=%v err=%q, want flaky after 2 attempts",
				o.Module, o.Test, o.Flaky, o.Attempts, o.Passed, o.BuildErr)
		}
	}

	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	sys := content.PortedSystem()
	spec.NewPlatform = flaky.New(transientPlan).NewPlatform
	var recs []journal.Record
	spec.Journal = journal.SinkFunc(func(r journal.Record) { recs = append(recs, r) })
	local, err := regress.Run(sys, freeze(t, req.Label, sys), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantCells, _ := json.Marshal(local.BundleCells())
	gotCells, _ := json.Marshal(reply.Report().BundleCells())
	if !bytes.Equal(wantCells, gotCells) {
		t.Fatalf("outcome tables diverge:\nin-process: %s\nserved:     %s", wantCells, gotCells)
	}
	if want, got := maskedRecords(t, recs), maskedRecords(t, reply.Journal); !bytes.Equal(want, got) {
		t.Fatalf("masked journals diverge:\n--- in-process ---\n%s\n--- served ---\n%s", want, got)
	}
	if !bytes.Contains(maskedRecords(t, reply.Journal), []byte(`"kind":"retry"`)) {
		t.Fatal("served journal records no retry")
	}
}

// TestServedDeadlineBoundsWedgedCell: under a served deadline a wedged
// cell ends cancelled or broken, never hung. A platform that honours its
// context stops at the deadline in the worker (StopCancelled); a worker
// that never answers at all is killed by the daemon, its cell broken,
// and a respawned worker runs the rest.
func TestServedDeadlineBoundsWedgedCell(t *testing.T) {
	t.Run("cancelled", func(t *testing.T) {
		sock := startDaemon(t, 1, "SHARD_WORKER_FAULT=hang")
		req := emulatorRequest("served-hang")
		req.DeadlineNs = int64(50 * time.Millisecond)
		req.Triage = true
		reply := regressWithin(t, sock, req, 60*time.Second)
		for _, o := range reply.Outcomes {
			if o.Passed || o.Reason != platform.StopCancelled {
				t.Fatalf("%s/%s: passed=%v reason=%q, want cancelled at the deadline",
					o.Module, o.Test, o.Passed, o.Reason)
			}
			// The failing cell's triage artifact travels back in its
			// outcome, replayed in the worker against a pristine
			// instance of the harnessed kind.
			if tr := o.Triage; tr == nil || tr.Module != o.Module || tr.Platform != platform.KindEmulator ||
				tr.Reference != platform.KindEmulator {
				t.Fatalf("%s/%s: triage artifact %+v, want the emulator replay", o.Module, o.Test, tr)
			}
		}
	})
	t.Run("broken", func(t *testing.T) {
		flag := filepath.Join(t.TempDir(), "wedge")
		if err := os.WriteFile(flag, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		sock := startDaemon(t, 1, "SHARD_WORKER_WEDGE_FLAG="+flag)
		req := shard.Request{Label: "served-wedge", Modules: []string{"SECURITY"},
			Derivs: []string{"SC88-A"}, Platforms: []string{"golden"}, SkipVet: true,
			DeadlineNs: int64(200 * time.Millisecond)}
		reply := regressWithin(t, sock, req, 60*time.Second)
		broken, passed := 0, 0
		for _, o := range reply.Outcomes {
			switch {
			case strings.Contains(o.BuildErr, "no reply within"):
				broken++
			case o.Passed:
				passed++
			}
		}
		if broken != 1 || passed != len(reply.Outcomes)-1 {
			t.Fatalf("broken=%d passed=%d of %d, want the wedged cell broken and the rest passed: %+v",
				broken, passed, len(reply.Outcomes), reply.Outcomes)
		}
	})
}

// regressWithin runs a served request and fails the test if it has not
// answered within limit.
func regressWithin(t *testing.T, sock string, req shard.Request, limit time.Duration) *shard.Reply {
	t.Helper()
	type answer struct {
		reply *shard.Reply
		err   error
	}
	ch := make(chan answer, 1)
	go func() {
		reply, err := shard.Regress(sock, req, nil)
		ch <- answer{reply, err}
	}()
	select {
	case a := <-ch:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if len(a.reply.Outcomes) == 0 {
			t.Fatal("empty matrix")
		}
		return a.reply
	case <-time.After(limit):
		t.Fatalf("served request hung past %s", limit)
		return nil
	}
}

// TestServedReportHasTimestamp: the served report takes Started from the
// run's header record, so its JUnit suite carries a timestamp as the
// in-process one does.
func TestServedReportHasTimestamp(t *testing.T) {
	sock := startDaemon(t, 1)
	before := time.Now().Add(-time.Second)
	reply, err := shard.Regress(sock, shard.Request{Label: "served-junit", Modules: []string{"SECURITY"},
		Derivs: []string{"SC88-A"}, Platforms: []string{"golden"}, SkipVet: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reply.Report()
	if rep.Started.Before(before) || rep.Started.After(time.Now()) {
		t.Fatalf("served report Started = %v, want the run's start", rep.Started)
	}
	var sb strings.Builder
	if err := rep.WriteJUnit(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timestamp=") {
		t.Fatalf("served JUnit has no suite timestamp:\n%s", sb.String())
	}
}

// TestServedRefusesEpochDrift: a request frozen on other content is
// refused before the plan frame, so no record of the daemon's run ever
// reaches the client's sinks.
func TestServedRefusesEpochDrift(t *testing.T) {
	sock := startDaemon(t, 1)
	req := shard.Request{Label: "drift", Modules: []string{"SECURITY"},
		Derivs: []string{"SC88-A"}, Platforms: []string{"golden"}, SkipVet: true,
		Epoch: "not-the-daemons-epoch"}
	results := 0
	_, err := shard.Regress(sock, req, func(*shard.Result) { results++ })
	if err == nil || !strings.Contains(err.Error(), "epoch drift") {
		t.Fatalf("drifted request: err = %v, want an epoch-drift refusal", err)
	}
	if results != 0 {
		t.Fatalf("refused request streamed %d results", results)
	}
	req.Epoch = content.PortedSystem().ContentEpoch()
	if _, err := shard.Regress(sock, req, nil); err != nil {
		t.Fatalf("request at the daemon's epoch: %v", err)
	}
}
