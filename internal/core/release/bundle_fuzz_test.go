package release_test

import (
	"testing"

	"repro/internal/core/buildcache"
	"repro/internal/core/content"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/runcache"
	"repro/internal/core/vet"
	"repro/internal/platform"
)

// sealedBundle returns the seed corpus entry: the bundle the E18
// certification harness seals — the shipped system frozen, one golden
// family matrix run with fresh caches, and the evidence certified.
func sealedBundle(tb testing.TB) []byte {
	tb.Helper()
	sys := content.PortedSystem()
	var subs []*release.Label
	for _, e := range sys.Envs() {
		subs = append(subs, release.Snapshot("E18_"+e.Module, e))
	}
	sl, err := release.ComposeSystem("E18", sys, subs...)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := regress.Run(sys, sl, regress.Spec{
		Kinds:    []platform.Kind{platform.KindGolden},
		Cache:    buildcache.New(),
		RunCache: runcache.New(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := release.Certify(sys, sl, vet.NewOptions(), rep.BundleCells())
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := b.JSON()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzReadBundle drives the bundle reader with arbitrary bytes: every
// input either fails with an error or yields a bundle whose seal
// verifies and survives a re-encode — never a panic.
func FuzzReadBundle(f *testing.F) {
	raw := sealedBundle(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(`{"label":"L","epoch":"e","vet":null,"hash":""}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := release.ReadBundle(data)
		if err != nil {
			return
		}
		if err := b.Verify(); err != nil {
			t.Fatalf("ReadBundle accepted a bundle that does not verify: %v", err)
		}
		out, err := b.JSON()
		if err != nil {
			t.Fatalf("accepted bundle does not encode: %v", err)
		}
		back, err := release.ReadBundle(out)
		if err != nil {
			t.Fatalf("re-encoded bundle does not read back: %v", err)
		}
		if back.Hash != b.Hash {
			t.Fatalf("seal changed across a re-encode: %s -> %s", b.Hash, back.Hash)
		}
	})
}
