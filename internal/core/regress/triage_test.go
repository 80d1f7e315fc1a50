package regress

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/telemetry"
	"repro/internal/gate"
	"repro/internal/netlist"
	"repro/internal/platform"
	"repro/internal/soc"

	_ "repro/internal/rtl"
	_ "repro/internal/silicon"
)

// brokenALUMutation finds a (gate index, kind) mutation that corrupts
// the netlist adder on common small operands — a fault every test cell
// trips over, since address arithmetic and loop counters go through ADD.
func brokenALUMutation(t *testing.T) (int, netlist.GateKind) {
	t.Helper()
	vectors := [][2]uint32{{1, 1}, {2, 3}, {0x10, 0x20}, {100, 200}, {0xFFFF, 1}}
	for idx := 0; idx < netlist.BuildALU().NumGates(); idx++ {
		for _, kind := range []netlist.GateKind{netlist.KXor, netlist.KAnd, netlist.KOr} {
			nl := netlist.BuildALU()
			if old := nl.MutateGate(idx, kind); old == kind {
				continue
			}
			ev := netlist.NewEvaluator(nl)
			broken := 0
			for _, v := range vectors {
				ev.SetInput("a", uint64(v[0]))
				ev.SetInput("b", uint64(v[1]))
				ev.SetInput("op", netlist.ALUAdd)
				ev.Eval()
				if uint32(ev.Output("y")) != v[0]+v[1] {
					broken++
				}
			}
			if broken >= len(vectors)-1 {
				return idx, kind
			}
		}
	}
	t.Fatal("no ALU-breaking mutation found")
	return 0, 0
}

// TestTriageNamesInjectedFaultPC is the acceptance path: a single-gate
// defect injected into the gate-level ALU must make cells fail, and the
// triage replay must pin the first divergence to an exact PC with a
// ±8-instruction window and a register diff.
func TestTriageNamesInjectedFaultPC(t *testing.T) {
	idx, kind := brokenALUMutation(t)
	s := content.PortedSystem()
	sl := freeze(t, s)
	dir := t.TempDir()
	metrics := telemetry.NewRegistry()
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.A()},
		Kinds:       []platform.Kind{platform.KindGate},
		Modules:     []string{"UART"},
		RunSpec:     platform.RunSpec{MaxInstructions: 60_000},
		Triage:      true,
		Metrics:     metrics,
		NewPlatform: func(k platform.Kind, cfg soc.HWConfig) (platform.Platform, error) {
			if k != platform.KindGate {
				return platform.New(k, cfg)
			}
			g := gate.New(cfg)
			g.ALU().Netlist().MutateGate(idx, kind)
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllPassed() {
		t.Fatal("mutated ALU should fail cells")
	}
	var tri *Triage
	for _, o := range rep.Outcomes {
		if o.Triage != nil && o.Triage.Kind != TriageNoTracePort {
			tri = o.Triage
			break
		}
	}
	if tri == nil {
		t.Fatal("no failing cell carries a triage artifact")
	}
	if tri.Kind != TriagePCMismatch && tri.Kind != TriageRegMismatch && tri.Kind != TriageEarlyEnd {
		t.Fatalf("triage kind = %s, want a divergence", tri.Kind)
	}
	if tri.DivergencePC == 0 {
		t.Error("triage must name the divergence PC")
	}
	if tri.Reference != platform.KindGate {
		t.Errorf("injection harness must compare against a pristine same-kind reference, got %s", tri.Reference)
	}
	if len(tri.RefWindow) == 0 || len(tri.SubjectWindow) == 0 {
		t.Error("triage must carry instruction windows from both sides")
	}
	if tri.Kind == TriageRegMismatch && len(tri.RegDiffs) == 0 {
		t.Error("register divergence must list the differing registers")
	}
	if !strings.Contains(tri.Summary(), "0x") {
		t.Errorf("summary must show the PC: %s", tri.Summary())
	}

	// The artifact file must exist and name the same PC.
	if err := WriteTriageFile(dir, tri); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "triage_*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no triage files written (err=%v)", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{"ADVM first-divergence triage", "window"} {
		if !strings.Contains(body, want) {
			t.Errorf("artifact missing %q:\n%s", want, body)
		}
	}
	if metrics.Counter("regress.triaged").Value() == 0 {
		t.Error("triage counter not incremented")
	}
	if metrics.Counter("regress.failed").Value() == 0 {
		t.Error("failed counter not incremented")
	}
}

// TestTriageNoDivergenceOnRealTestFailure: a test that fails for a
// software reason (the unported system on derivative C) fails
// identically on the reference, and triage must say so instead of
// inventing a divergence.
func TestTriageNoDivergenceOnRealTestFailure(t *testing.T) {
	s := content.UnportedSystem()
	sl := freeze(t, s)
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.C()},
		Kinds:       []platform.Kind{platform.KindRTL},
		Modules:     []string{"NVM"},
		RunSpec:     platform.RunSpec{MaxInstructions: 60_000},
		Triage:      true,
		// Force a same-kind reference so timing loops stay in lockstep
		// and the comparison is exact.
		NewPlatform: platform.New,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range rep.Outcomes {
		if o.Passed || o.Triage == nil {
			continue
		}
		found = true
		if o.Triage.Kind != TriageNone {
			t.Errorf("%s/%s: software failure triaged as %s, want %s",
				o.Module, o.Test, o.Triage.Kind, TriageNone)
		}
	}
	if !found {
		t.Fatal("expected failing NVM cells with triage attached")
	}
}

// TestTriageStubOnNoTracePlatform: a failing cell on a platform without
// a trace port gets a stub artifact pointing at the ladder.
func TestTriageStubOnNoTracePlatform(t *testing.T) {
	s := content.UnportedSystem()
	sl := freeze(t, s)
	rep, err := Run(s, sl, Spec{
		Derivatives: []*derivative.Derivative{derivative.C()},
		Kinds:       []platform.Kind{platform.KindSilicon},
		Modules:     []string{"NVM"},
		RunSpec:     platform.RunSpec{MaxInstructions: 60_000},
		Triage:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range rep.Outcomes {
		if o.Triage == nil {
			continue
		}
		found = true
		if o.Triage.Kind != TriageNoTracePort {
			t.Errorf("silicon triage kind = %s, want %s", o.Triage.Kind, TriageNoTracePort)
		}
		if !strings.Contains(o.Triage.Summary(), "no trace port") {
			t.Errorf("stub summary: %s", o.Triage.Summary())
		}
	}
	if !found {
		t.Fatal("expected failing silicon cells with triage stubs")
	}
}
