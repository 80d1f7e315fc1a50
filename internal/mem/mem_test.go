package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func newTestMem() *Memory {
	m := &Memory{}
	m.AddRegion("rom", 0x0000, 0x1000, PermRead|PermExec)
	m.AddRegion("ram", 0x2000, 0x1000, PermRead|PermWrite)
	return m
}

func TestReadWriteWidths(t *testing.T) {
	m := newTestMem()
	if err := m.Write32(0x2000, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x2000, AccessRead); v != 0xdeadbeef {
		t.Errorf("Read32 = %#x", v)
	}
	// Little-endian byte order.
	if v, _ := m.Read8(0x2000, AccessRead); v != 0xef {
		t.Errorf("byte 0 = %#x", v)
	}
	if v, _ := m.Read8(0x2003, AccessRead); v != 0xde {
		t.Errorf("byte 3 = %#x", v)
	}
	if v, _ := m.Read16(0x2002, AccessRead); v != 0xdead {
		t.Errorf("half 1 = %#x", v)
	}
	if err := m.Write16(0x2000, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x2000, AccessRead); v != 0xdead1234 {
		t.Errorf("after half write = %#x", v)
	}
	if err := m.Write8(0x2001, 0xff); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x2000, AccessRead); v != 0xdeadff34 {
		t.Errorf("after byte write = %#x", v)
	}
}

func TestPermissions(t *testing.T) {
	m := newTestMem()
	if err := m.Write32(0x0000, 1); err == nil {
		t.Error("write to ROM should fault")
	}
	if _, err := m.Read32(0x2000, AccessFetch); err == nil {
		t.Error("fetch from non-exec RAM should fault")
	}
	if _, err := m.Read32(0x0000, AccessFetch); err != nil {
		t.Errorf("fetch from ROM: %v", err)
	}
	var f *Fault
	err := m.Write32(0x0000, 1)
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %T", err)
	}
	if f.Kind != AccessWrite || f.Addr != 0 {
		t.Errorf("fault fields: %+v", f)
	}
	if f.Error() == "" {
		t.Error("fault message empty")
	}
}

func TestRelaxedMode(t *testing.T) {
	m := newTestMem()
	m.SetRelaxed(true)
	if err := m.Write32(0x0000, 0x42); err != nil {
		t.Fatalf("relaxed ROM write: %v", err)
	}
	m.SetRelaxed(false)
	if v, _ := m.Read32(0x0000, AccessRead); v != 0x42 {
		t.Errorf("ROM content = %#x", v)
	}
}

func TestUnmappedAndStraddle(t *testing.T) {
	m := newTestMem()
	if _, err := m.Read32(0x5000, AccessRead); err == nil {
		t.Error("unmapped read should fault")
	}
	// Word access straddling the end of a region.
	if _, err := m.Read32(0x0ffe, AccessRead); err == nil {
		t.Error("straddling read should fault")
	}
	if _, err := m.Read32(0x2ffe, AccessRead); err == nil {
		t.Error("read past region end should fault")
	}
}

func TestMisaligned(t *testing.T) {
	m := newTestMem()
	if _, err := m.Read32(0x2001, AccessRead); err == nil {
		t.Error("misaligned word read should fault")
	}
	if _, err := m.Read16(0x2001, AccessRead); err == nil {
		t.Error("misaligned half read should fault")
	}
	if err := m.Write32(0x2002, 0); err == nil {
		t.Error("misaligned word write should fault")
	}
}

func TestFindRegion(t *testing.T) {
	m := newTestMem()
	if r := m.FindRegion(0x2000); r == nil || r.Name != "ram" {
		t.Errorf("FindRegion(0x2000) = %v", r)
	}
	if r := m.FindRegion(0x2fff); r == nil || r.Name != "ram" {
		t.Errorf("FindRegion(0x2fff) = %v", r)
	}
	if r := m.FindRegion(0x3000); r != nil {
		t.Errorf("FindRegion(0x3000) = %v, want nil", r)
	}
	if r := m.FindRegion(0x1800); r != nil {
		t.Errorf("FindRegion in hole = %v, want nil", r)
	}
}

func TestOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overlapping region")
		}
	}()
	m := newTestMem()
	m.AddRegion("bad", 0x0800, 0x1000, PermRead)
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero-size region")
		}
	}()
	(&Memory{}).AddRegion("empty", 0, 0, PermRead)
}

func TestWatchpoints(t *testing.T) {
	m := newTestMem()
	var hits []uint32
	m.AddWatchpoint(Watchpoint{
		Lo: 0x2010, Hi: 0x201f, Kind: AccessWrite,
		Hit: func(addr uint32, _ Access, v uint32) { hits = append(hits, addr, v) },
	})
	_ = m.Write32(0x2000, 1) // outside
	_ = m.Write32(0x2010, 7) // inside
	_, _ = m.Read32(0x2010, AccessRead)
	if len(hits) != 2 || hits[0] != 0x2010 || hits[1] != 7 {
		t.Errorf("watchpoint hits = %v", hits)
	}
	m.ClearWatchpoints()
	_ = m.Write32(0x2010, 9)
	if len(hits) != 2 {
		t.Error("watchpoint fired after clear")
	}
}

func TestLoadBlobAndDump(t *testing.T) {
	m := newTestMem()
	blob := []byte{1, 2, 3, 4, 5}
	if err := m.LoadBlob(0x0ffd, blob); err == nil {
		t.Error("LoadBlob straddling into a hole should fail")
	}
	if err := m.LoadBlob(0x0100, blob); err != nil {
		t.Fatal(err)
	}
	got, err := m.Dump(0x0100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		if got[i] != blob[i] {
			t.Fatalf("dump mismatch at %d: %v", i, got)
		}
	}
	if _, err := m.Dump(0x4000, 1); err == nil {
		t.Error("dump of unmapped should fail")
	}
}

// TestReadWriteProperty: a 32-bit write followed by a read returns the
// value, at any aligned RAM address.
func TestReadWriteProperty(t *testing.T) {
	m := newTestMem()
	f := func(off uint16, v uint32) bool {
		addr := 0x2000 + uint32(off)%0xffc
		addr &^= 3
		if err := m.Write32(addr, v); err != nil {
			return false
		}
		got, err := m.Read32(addr, AccessRead)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestEndianProperty: word write equals four byte writes little-endian.
func TestEndianProperty(t *testing.T) {
	m := newTestMem()
	f := func(v uint32) bool {
		_ = m.Write32(0x2000, v)
		for i := 0; i < 4; i++ {
			b, _ := m.Read8(0x2000+uint32(i), AccessRead)
			if b != byte(v>>(8*i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// pagesHeld counts the pages a region has materialised.
func pagesHeld(r *Region) int {
	n := 0
	for _, p := range r.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestSparsePages: a region materialises a page only on its first
// non-zero write; zero writes and zero blobs leave it untouched.
func TestSparsePages(t *testing.T) {
	m := &Memory{}
	ram := m.AddRegion("ram", 0x4000, 0x10000, PermRead|PermWrite)
	if n := pagesHeld(ram); n != 0 {
		t.Fatalf("untouched region holds %d pages", n)
	}
	if v, err := m.Read32(0x4ffc, AccessRead); err != nil || v != 0 {
		t.Fatalf("untouched read = %#x, %v", v, err)
	}
	_ = m.Write32(0x4000, 0)
	_ = m.Write16(0x5002, 0)
	_ = m.Write8(0x6003, 0)
	if err := m.LoadBlob(0x4000, make([]byte, 0x10000)); err != nil {
		t.Fatal(err)
	}
	if n := pagesHeld(ram); n != 0 {
		t.Fatalf("zero writes and a zero blob materialised %d pages", n)
	}
	_ = m.Write8(0x4401, 7)
	if n := pagesHeld(ram); n != 1 {
		t.Fatalf("one non-zero write materialised %d pages", n)
	}
	// A zero write to a materialised page still clears it.
	_ = m.Write8(0x4401, 0)
	if v, _ := m.Read8(0x4401, AccessRead); v != 0 {
		t.Fatalf("zero write to a live page left %#x", v)
	}
}

// TestStraddlePages: a relaxed misaligned word access across a page edge
// reads and writes both pages.
func TestStraddlePages(t *testing.T) {
	m := &Memory{}
	ram := m.AddRegion("ram", 0x4000, 0x1000, PermRead|PermWrite)
	m.SetRelaxed(true)
	if err := m.Write32(0x43fe, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if n := pagesHeld(ram); n != 2 {
		t.Fatalf("straddling write materialised %d pages, want 2", n)
	}
	if v, err := m.Read32(0x43fe, AccessRead); err != nil || v != 0x11223344 {
		t.Fatalf("straddling read = %#x, %v", v, err)
	}
	if v, _ := m.Read16(0x43ff, AccessRead); v != 0x2233 {
		t.Fatalf("straddling halfword = %#x", v)
	}
	if b, _ := m.Dump(0x43fe, 4); string(b) != "\x44\x33\x22\x11" {
		t.Fatalf("dump across the edge = %x", b)
	}
	m.SetRelaxed(false)
	if _, err := m.Read32(0x43fe, AccessRead); err == nil {
		t.Fatal("strict misaligned read should fault")
	}
}

// TestShortLastPage: a region whose size is not a multiple of the page
// size ends exactly at its size; the byte after it is unmapped.
func TestShortLastPage(t *testing.T) {
	m := &Memory{}
	r := m.AddRegion("nvm", 0x8000, 0x0602, PermRead|PermWrite)
	if err := m.Write16(0x8600, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if got := len(r.pages[1]); got != 0x202 {
		t.Fatalf("last page is %d bytes, want %d", got, 0x202)
	}
	var f *Fault
	if _, err := m.Read32(0x8600, AccessRead); !errors.As(err, &f) || f.Reason != "unmapped" {
		t.Fatalf("word read past the short page = %v, want unmapped", err)
	}
	if err := m.Write8(0x8602, 1); !errors.As(err, &f) || f.Reason != "unmapped" {
		t.Fatalf("byte write past the short page = %v, want unmapped", err)
	}
	if err := m.LoadBlob(0x8601, []byte{1, 2}); !errors.As(err, &f) || f.Addr != 0x8602 {
		t.Fatalf("blob past the short page = %v, want a fault at 0x8602", err)
	}
}
