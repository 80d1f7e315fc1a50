package shard

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/core/journal"
	"repro/internal/core/regress"
)

// Reply is a completed served regression.
type Reply struct {
	Plan *Plan
	// Outcomes is the daemon report's, indexed by the deterministic cell
	// enumeration — the order regress.Run's report uses.
	Outcomes []regress.Outcome
	// Journal is the run's flight record as the daemon's regress.Run
	// emitted it: cells in completion order. journal.Mask lays it out
	// canonically; masked, it is byte-identical to a serial run's.
	Journal []journal.Record
	Done    Done
}

// Dial connects to a daemon at addr with a short retry window, so a
// client racing a just-started daemon (the smoke test does exactly
// this) connects as soon as the socket exists. An explicit "unix:" or
// "tcp:" scheme prefix selects the network; without one, an addr
// containing a path separator is a unix socket and anything else is TCP
// host:port. The prefix exists because the bare heuristic misroutes
// TCP addrs that legitimately contain '/' — IPv6 zone-scoped hosts and
// URL-style addresses — and those must be able to say "tcp:" outright.
func Dial(addr string, wait time.Duration) (net.Conn, error) {
	network, addr := SplitAddr(addr)
	deadline := time.Now().Add(wait)
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: dial %s %s: %w", network, addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// SplitAddr resolves a listen/dial address into (network, address):
// explicit "unix:"/"tcp:" prefixes win, then the legacy heuristic (a
// '/' or a ".sock" suffix means a unix socket path).
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.ContainsRune(addr, '/'), strings.HasSuffix(addr, ".sock"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}

// Regress runs one regression request against the daemon at addr and
// collects the streamed results. onResult, when non-nil, observes each
// closed cell as it arrives (completion order) with the records emitted
// since the previous one — the client's progress hook; the records that
// follow the last cell arrive in Reply.Done.Records.
func Regress(addr string, req Request, onResult func(*Result)) (*Reply, error) {
	nc, err := Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	conn := NewConn(nc, nc)
	if err := conn.Write(Frame{Type: FrameRequest, Request: &req}); err != nil {
		return nil, err
	}
	f, err := conn.Read()
	if err != nil {
		return nil, fmt.Errorf("shard: reading plan: %w", err)
	}
	if f.Type == FrameError {
		return nil, fmt.Errorf("shard: daemon refused: %s", f.Error)
	}
	if f.Type != FramePlan || f.Plan == nil {
		return nil, fmt.Errorf("shard: expected plan, got %q", f.Type)
	}
	reply := &Reply{Plan: f.Plan}
	// got tracks per-cell receipt: a duplicate result frame for the same
	// cell ID must be rejected, not counted — counting it twice would
	// let the done-frame completeness check pass with other cells never
	// reported.
	got := make([]bool, len(f.Plan.Cells))
	seen := 0
	for {
		f, err := conn.Read()
		if err != nil {
			return nil, fmt.Errorf("shard: result stream: %w", err)
		}
		switch f.Type {
		case FrameResult:
			r := f.Result
			if r == nil || r.ID < 0 || r.ID >= len(got) {
				return nil, fmt.Errorf("shard: result for unknown cell")
			}
			if got[r.ID] {
				return nil, fmt.Errorf("shard: duplicate result for cell %d (%s)",
					r.ID, reply.Plan.Cells[r.ID])
			}
			got[r.ID] = true
			seen++
			reply.Journal = append(reply.Journal, r.Records...)
			if onResult != nil {
				onResult(r)
			}
		case FrameError:
			return nil, fmt.Errorf("shard: daemon error: %s", f.Error)
		case FrameDone:
			if seen != len(got) {
				return nil, fmt.Errorf("shard: done after %d of %d cells", seen, len(got))
			}
			if f.Done == nil || len(f.Done.Outcomes) != len(got) {
				return nil, fmt.Errorf("shard: done frame does not report the %d planned cells", len(got))
			}
			reply.Outcomes = f.Done.Outcomes
			reply.Journal = append(reply.Journal, f.Done.Records...)
			reply.Done = *f.Done
			return reply, nil
		default:
			return nil, fmt.Errorf("shard: unexpected %q frame in result stream", f.Type)
		}
	}
}

// Report converts the reply into a regress.Report so every downstream
// renderer — table, summary, JUnit, certification bundle — works
// unchanged on a served run. Started comes from the run's header record,
// as the in-process report's does.
func (r *Reply) Report() *regress.Report {
	rep := &regress.Report{Label: r.Plan.Label, Outcomes: r.Outcomes}
	for _, rec := range r.Journal {
		if rec.Kind == journal.KindHeader {
			rep.Started, _ = time.Parse(time.RFC3339, rec.Wall)
			break
		}
	}
	return rep
}
