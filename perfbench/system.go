package main

import (
	"fmt"

	"repro/internal/core/content"
	"repro/internal/core/randgen"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
	"repro/internal/platform"
)

// labelName is the release label every matrix is frozen under. The
// seed changes the label's content (and so its epoch), not its name.
const labelName = "PERFBENCH"

// pageDefines are the NVM defines the seed draws. Pages 0-31 are valid
// on every derivative, so each seed yields a passing suite with a
// different frozen epoch, different images and different instruction
// counts, for the same amount of work.
var pageDefines = []string{"TEST1_TARGET_PAGE", "TEST2_TARGET_PAGE"}

// drawPages is the seed's randgen draw over the NVM target pages.
func drawPages(seed int64) randgen.Instance {
	g := randgen.New(seed)
	for _, name := range pageDefines {
		g.MustAdd(randgen.Constraint{Name: name, Min: 0, Max: 31})
	}
	return g.Draw()
}

// seededSystem builds the shipped system with the NVM environment
// replaced by its seeded randgen instance. The program sees only this
// generated suite.
func seededSystem(seed int64) (*sysenv.System, error) {
	base := content.PortedSystem()
	inst := drawPages(seed)
	out := sysenv.New(base.Name)
	for _, e := range base.Envs() {
		if e.Module == "NVM" {
			var err error
			if e, err = randgen.Apply(e, inst); err != nil {
				return nil, err
			}
		}
		if err := out.AddEnv(e); err != nil {
			return nil, err
		}
	}
	out.SetRequirements(base.Requirements())
	return out, nil
}

// mustSeededSystem is seededSystem for the shard constructors, which
// take no error. The draw and the defines it sets are fixed above, so
// a failure here is a bug in this file.
func mustSeededSystem(seed int64) func() *sysenv.System {
	return func() *sysenv.System {
		s, err := seededSystem(seed)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// freeze composes the system release label the way advm.FreezeSystem
// and the shard daemon do, so in-process and served epochs agree.
func freeze(s *sysenv.System) (*release.SystemLabel, error) {
	var subs []*release.Label
	for _, e := range s.Envs() {
		subs = append(subs, release.Snapshot(labelName+"_"+e.Module, e))
	}
	return release.ComposeSystem(labelName, s, subs...)
}

// cellEvidence is what the oracle compares per cell.
type cellEvidence struct {
	status string
	reason platform.StopReason
	mbox   uint32
	insts  uint64
	cycles uint64
}

// reference is the oracle: the verdict and architectural evidence of
// every cell, plus the sealed bundle hash, from a serial, uncached,
// interpreter-engine run of the same seeded suite.
type reference struct {
	cells map[string]cellEvidence
	seal  string
}

func cellKey(o regress.Outcome) string {
	return fmt.Sprintf("%s/%s@%s/%s", o.Module, o.Test, o.Derivative, o.Platform)
}

func evidence(o regress.Outcome) cellEvidence {
	status := "failed"
	switch {
	case o.BuildErr != "":
		status = "broken"
	case o.Flaky:
		status = "flaky"
	case o.Passed:
		status = "passed"
	}
	return cellEvidence{status: status, reason: o.Reason, mbox: o.MboxResult,
		insts: o.Insts, cycles: o.Cycles}
}

// computeReference runs the oracle matrix. It is deliberately the
// slowest correct configuration: one worker, no caches, the
// interpreter engine.
func computeReference(s *sysenv.System, label *release.SystemLabel) (*reference, error) {
	spec := regress.Spec{Workers: 1}
	spec.RunSpec.Engine = platform.EngineInterp
	rep, err := regress.Run(s, label, spec)
	if err != nil {
		return nil, fmt.Errorf("reference matrix: %w", err)
	}
	ref := &reference{cells: make(map[string]cellEvidence, len(rep.Outcomes))}
	for _, o := range rep.Outcomes {
		ev := evidence(o)
		if ev.status != "passed" {
			return nil, fmt.Errorf("reference matrix: %s %s %s %s", cellKey(o), ev.status, o.Reason, o.BuildErr)
		}
		ref.cells[cellKey(o)] = ev
	}
	b, err := release.Certify(s, label, vet.NewOptions(), rep.BundleCells())
	if err != nil {
		return nil, fmt.Errorf("reference bundle: %w", err)
	}
	ref.seal = b.Hash
	return ref, nil
}

// wrongCells counts the cells of one matrix that disagree with the
// reference: broken, or different in verdict, stop reason, mailbox
// word, instructions or cycles. A cell the reference lacks, or a
// reference cell the matrix lacks, is wrong too. A matrix whose bundle
// seal differs from the reference seal is wrong in every cell.
func (ref *reference) wrongCells(outcomes []regress.Outcome, seal string) int {
	if seal != ref.seal {
		return max(len(outcomes), len(ref.cells))
	}
	wrong := 0
	seen := 0
	for _, o := range outcomes {
		want, ok := ref.cells[cellKey(o)]
		if !ok {
			wrong++
			continue
		}
		seen++
		if o.BuildErr != "" || evidence(o) != want {
			wrong++
		}
	}
	return wrong + len(ref.cells) - seen
}
