package castore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core/buildcache"
	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/runcache"
	"repro/internal/core/sysenv"
	"repro/internal/platform"

	_ "repro/internal/golden"
)

// matrixEntries runs a small matrix — the UART tests on one derivative on
// the golden model — with both caches writing through to a store in dir,
// as advm-regress -store does, and returns every entry file it wrote.
func matrixEntries(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	s := content.PortedSystem()
	var subs []*release.Label
	for _, e := range s.Envs() {
		subs = append(subs, release.Snapshot(e.Module+"_F1", e))
	}
	label, err := release.ComposeSystem("FUZZ", s, subs...)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	bc, rc := buildcache.New(), runcache.New()
	bc.SetBackend(store, sysenv.PersistEncode, sysenv.PersistDecode)
	rc.SetBackend(store)
	spec := regress.Spec{
		Derivatives: derivative.Family()[:1],
		Kinds:       []platform.Kind{platform.KindGolden},
		Modules:     []string{"UART"},
		Cache:       bc,
		RunCache:    rc,
	}
	if _, err := regress.Run(s, label, spec); err != nil {
		tb.Fatal(err)
	}
	if err := store.Close(); err != nil {
		tb.Fatal(err)
	}
	var entries [][]byte
	err = filepath.WalkDir(store.objectsDir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) == ".lock" {
			return err
		}
		data, err := os.ReadFile(path)
		entries = append(entries, data)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(entries) == 0 {
		tb.Fatal("the matrix stored no entries")
	}
	return entries
}

// FuzzDecodeEntry feeds arbitrary entry-file bytes — what Get reads from
// disk, and what a fleet peer's store hands over — to decodeEntry, seeded
// with the entries a real matrix writes. It must never panic, and an
// input it accepts must be exactly the framing of the payload it returns.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range matrixEntries(f, f.TempDir()) {
		f.Add(e)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := decodeEntry(data)
		if !ok {
			return
		}
		var buf bytes.Buffer
		if err := writeEntry(&buf, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes that do not re-frame to themselves", len(data))
		}
	})
}
