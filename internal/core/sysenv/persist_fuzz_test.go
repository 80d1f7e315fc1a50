package sysenv_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core/buildcache"
	"repro/internal/core/content"
	"repro/internal/core/derivative"
	"repro/internal/core/sysenv"
	"repro/internal/platform"
)

// payloadLog is a build-cache backend that keeps every payload written
// through it.
type payloadLog struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *payloadLog) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	return data, ok
}

func (b *payloadLog) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = data
	return nil
}

func (b *payloadLog) Lock(string) func() { return func() {} }

// FuzzPersistDecode feeds arbitrary payloads — what the store, local or a
// fleet peer's over TCP, hands back for a build key — to PersistDecode,
// seeded with the source trees, objects and images a small matrix of
// builds writes through: the UART tests on one derivative for the golden
// model. It must never panic, and a value it accepts must re-encode, and
// decode again to an equal value with the same size accounting. (Gob
// writes map entries in random order, so trees and images are compared
// by value, not by bytes.)
func FuzzPersistDecode(f *testing.F) {
	s := content.PortedSystem()
	log := &payloadLog{m: map[string][]byte{}}
	bc := buildcache.New()
	bc.SetBackend(log, sysenv.PersistEncode, sysenv.PersistDecode)
	ctx := s.NewBuildContext(bc)
	d := derivative.Family()[0]
	for _, e := range s.Envs() {
		if e.Module != "UART" {
			continue
		}
		for _, id := range e.TestIDs() {
			if _, err := s.BuildTestWith(ctx, e.Module, id, d, platform.KindGolden); err != nil {
				f.Fatal(err)
			}
		}
	}
	keys := make([]string, 0, len(log.m))
	for k := range log.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		f.Fatal("the builds wrote no artifacts")
	}
	for _, k := range keys {
		f.Add(log.m[k])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, ok := sysenv.PersistDecode(data)
		if !ok {
			return
		}
		enc, ok := sysenv.PersistEncode(v)
		if !ok {
			t.Fatalf("a decoded %T does not re-encode", v)
		}
		v2, n2, ok := sysenv.PersistDecode(enc)
		if !ok || n2 != n {
			t.Fatalf("a re-encoded %T decodes as ok=%v size %d, want size %d", v, ok, n2, n)
		}
		enc2, _ := sysenv.PersistEncode(v2)
		if v3, _, _ := sysenv.PersistDecode(enc2); !reflect.DeepEqual(v3, v2) {
			t.Fatalf("re-encoding a decoded %T is not stable", v)
		}
	})
}
