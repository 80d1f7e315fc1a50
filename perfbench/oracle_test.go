package main

import (
	"testing"
)

// TestOracleCountsPerturbedOutcomes runs one cold matrix against the
// seeded reference and shows that the oracle counts a perturbed cell,
// and a perturbed seal, as wrong.
func TestOracleCountsPerturbedOutcomes(t *testing.T) {
	sys, err := seededSystem(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	label, err := freeze(sys)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := computeReference(sys, label)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload("cold", defaultSeed, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	out, err := w.matrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	cells := len(out.outcomes)
	if cells != 504 {
		t.Fatalf("matrix has %d cells, want 504", cells)
	}
	if got := ref.wrongCells(out.outcomes, out.seal); got != 0 {
		t.Fatalf("unperturbed matrix: %d wrong cells, want 0", got)
	}

	perturbed := append(out.outcomes[:0:0], out.outcomes...)
	perturbed[17].Insts++
	if got := ref.wrongCells(perturbed, out.seal); got != 1 {
		t.Errorf("one cell's instruction count changed: %d wrong cells, want 1", got)
	}
	perturbed = append(out.outcomes[:0:0], out.outcomes...)
	perturbed[3].BuildErr = "broken"
	if got := ref.wrongCells(perturbed, out.seal); got != 1 {
		t.Errorf("one cell broken: %d wrong cells, want 1", got)
	}
	if got := ref.wrongCells(out.outcomes, "0"+out.seal[1:]); got != cells {
		t.Errorf("different seal: %d wrong cells, want every one of %d", got, cells)
	}
	if got := ref.wrongCells(out.outcomes[1:], out.seal); got != 1 {
		t.Errorf("one cell missing: %d wrong cells, want 1", got)
	}
}

// TestSeedChangesTheSuite checks the seed reaches the program: two
// seeds with different page draws freeze different epochs, and the
// same seed freezes the same one.
func TestSeedChangesTheSuite(t *testing.T) {
	epoch := func(seed int64) string {
		s, err := seededSystem(seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := freeze(s)
		if err != nil {
			t.Fatal(err)
		}
		return l.Epoch()
	}
	if epoch(defaultSeed) != epoch(defaultSeed) {
		t.Error("the same seed froze two epochs")
	}
	a, b := drawPages(defaultSeed), drawPages(heldOutSeed)
	if a["TEST1_TARGET_PAGE"] == b["TEST1_TARGET_PAGE"] && a["TEST2_TARGET_PAGE"] == b["TEST2_TARGET_PAGE"] {
		t.Skip("default and held-out seeds draw the same pages")
	}
	if epoch(defaultSeed) == epoch(heldOutSeed) {
		t.Error("different page draws froze the same epoch")
	}
}

// TestTracedMatrixReconciles runs traced restart matrices, whose store,
// persist and journal decorators are called from both matrix workers at
// once, then replays the last one: the replay's calls must match the
// cache miss counters (layerValues checks), and the layers must show a
// restart's shape.
func TestTracedMatrixReconciles(t *testing.T) {
	sys, err := seededSystem(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	label, err := freeze(sys)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload("restart", heldOutSeed, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	var outs []*matrixOut
	for i := 0; i < 2; i++ {
		out, err := w.matrix(newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	rp, err := replay(sys, label, outs[len(outs)-1].outcomes, true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := layerValues(outs, rp, nil, outs[0].wall)
	if err != nil {
		t.Fatal(err)
	}
	if v["castore.gets"] == 0 || v["runcache.disk_hits"] == 0 || v["asm.units"] != 0 {
		t.Errorf("restart should read the store and assemble nothing: gets %v, run disk hits %v, units %v",
			v["castore.gets"], v["runcache.disk_hits"], v["asm.units"])
	}
}
