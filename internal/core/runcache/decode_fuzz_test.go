package runcache

import (
	"bytes"
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/platform"

	_ "repro/internal/golden"
)

// FuzzDecodeResult feeds arbitrary payloads — what the store, local or a
// fleet peer's over TCP, hands back for an outcome key — to decodeResult,
// seeded with the encoded outcomes of a small matrix: the UART tests on
// one derivative on the golden model. It must never panic, and a result
// it accepts must re-encode to bytes that decode and re-encode to the
// same bytes.
func FuzzDecodeResult(f *testing.F) {
	s := content.PortedSystem()
	d := derivative.Family()[0]
	seeds := 0
	for _, e := range s.Envs() {
		if e.Module != "UART" {
			continue
		}
		for _, id := range e.TestIDs() {
			img, err := s.BuildTest(e.Module, id, d, platform.KindGolden)
			if err != nil {
				f.Fatal(err)
			}
			p, err := platform.New(platform.KindGolden, d.HW)
			if err != nil {
				f.Fatal(err)
			}
			if err := p.Load(img); err != nil {
				f.Fatal(err)
			}
			res, err := p.Run(platform.RunSpec{})
			if err != nil {
				f.Fatal(err)
			}
			data, ok := encodeResult(res)
			if !ok {
				f.Fatalf("%s: outcome does not encode", id)
			}
			f.Add(data)
			seeds++
		}
	}
	if seeds == 0 {
		f.Fatal("no UART tests to seed from")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok := decodeResult(data)
		if !ok {
			return
		}
		enc, ok := encodeResult(r)
		if !ok {
			t.Fatal("a decoded result does not re-encode")
		}
		r2, ok := decodeResult(enc)
		if !ok {
			t.Fatal("a re-encoded result does not decode")
		}
		if enc2, _ := encodeResult(r2); !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding a decoded result is not stable")
		}
	})
}
