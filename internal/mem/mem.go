// Package mem provides the byte-addressable memory model used by every
// SC88 execution platform: fixed-size RAM/ROM/NVM regions with access
// permissions, watchpoints, and fault reporting. All multi-byte accesses
// are little-endian.
//
// A region's contents are a table of 1 KiB pages, the span one predecoded
// page covers. A page is allocated on its first non-zero write; until
// then it reads as zero, so a platform pays only for the pages a test
// touches.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Page geometry: 1 KiB pages, offsets relative to the region base.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Perm is a bitmask of permitted access kinds for a region.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Access identifies the kind of a memory access, for fault reporting and
// watchpoints.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessFetch
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessFetch:
		return "fetch"
	}
	return "access?"
}

// Fault describes a failed memory access.
type Fault struct {
	Addr   uint32
	Size   int
	Kind   Access
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s of %d byte(s) at 0x%08x: %s", f.Kind, f.Size, f.Addr, f.Reason)
}

// Region is a contiguous span of memory with uniform permissions.
type Region struct {
	Name string
	Base uint32
	Size uint32
	Perm Perm
	// pages holds the contents, pageSize bytes each; the last page is
	// short when Size is not a multiple of pageSize. A nil page has never
	// been written with a non-zero byte and reads as zero.
	pages [][]byte
}

// Contains reports whether addr lies inside the region.
func (r *Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// page returns the page holding region offset off, allocating it when
// alloc is set and it has never been written.
func (r *Region) page(off uint32, alloc bool) []byte {
	p := r.pages[off>>pageShift]
	if p == nil && alloc {
		p = make([]byte, min(pageSize, r.Size-off&^pageMask))
		r.pages[off>>pageShift] = p
	}
	return p
}

// load reads the n-byte (1, 2 or 4) little-endian value at region offset
// off. An access inside one page resolves the page once; only a relaxed
// misaligned access straddling two pages goes byte by byte.
func (r *Region) load(off, n uint32) uint32 {
	if off&pageMask+n > pageSize {
		var v uint32
		for i := uint32(0); i < n; i++ {
			v |= r.load(off+i, 1) << (8 * i)
		}
		return v
	}
	p := r.page(off, false)
	if p == nil {
		return 0
	}
	b := p[off&pageMask:]
	switch n {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	}
	return binary.LittleEndian.Uint32(b)
}

// store writes the low n bytes (1, 2 or 4) of v little-endian at region
// offset off. Writing zero to a page that was never written is a no-op.
func (r *Region) store(off, n, v uint32) {
	if off&pageMask+n > pageSize {
		for i := uint32(0); i < n; i++ {
			r.store(off+i, 1, v>>(8*i)&0xff)
		}
		return
	}
	p := r.page(off, v != 0)
	if p == nil {
		return
	}
	b := p[off&pageMask:]
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, v)
	}
}

// Watchpoint triggers a callback when an address range is accessed. Used by
// the bondout platform's debug hardware.
type Watchpoint struct {
	Lo, Hi uint32 // inclusive range
	Kind   Access
	Hit    func(addr uint32, kind Access, value uint32)
}

// Memory is an ordered set of regions. The zero value is an empty memory
// in which every access faults.
type Memory struct {
	regions []*Region
	watches []Watchpoint
	// Relaxed disables permission checks (write-to-ROM etc). The loader
	// uses it to initialise ROM contents.
	relaxed bool
}

// AddRegion creates a region and returns it. Overlapping regions are an
// error: the SoC memory map is constructed once at platform build time, so
// AddRegion panics on overlap to fail fast during bring-up.
func (m *Memory) AddRegion(name string, base, size uint32, perm Perm) *Region {
	if size == 0 {
		panic(fmt.Sprintf("mem: region %q has zero size", name))
	}
	for _, r := range m.regions {
		if base < r.Base+r.Size && r.Base < base+size {
			panic(fmt.Sprintf("mem: region %q [0x%x,0x%x) overlaps %q [0x%x,0x%x)",
				name, base, base+size, r.Name, r.Base, r.Base+r.Size))
		}
	}
	npages := (uint64(size) + pageSize - 1) >> pageShift
	reg := &Region{Name: name, Base: base, Size: size, Perm: perm, pages: make([][]byte, npages)}
	m.regions = append(m.regions, reg)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return reg
}

// Regions returns the regions in ascending base order.
func (m *Memory) Regions() []*Region { return m.regions }

// FindRegion returns the region containing addr, or nil.
func (m *Memory) FindRegion(addr uint32) *Region {
	// Binary search over sorted regions.
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := m.regions[mid]
		switch {
		case addr < r.Base:
			hi = mid
		case addr-r.Base >= r.Size:
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// AddWatchpoint registers a watchpoint. Watchpoints fire after a
// successful access.
func (m *Memory) AddWatchpoint(w Watchpoint) { m.watches = append(m.watches, w) }

// ClearWatchpoints removes all watchpoints.
func (m *Memory) ClearWatchpoints() { m.watches = nil }

// SetRelaxed toggles permission checking. With relaxed=true all regions
// are readable and writable; used by image loaders and debug pokes.
func (m *Memory) SetRelaxed(relaxed bool) { m.relaxed = relaxed }

func (m *Memory) check(addr uint32, size int, kind Access) (*Region, error) {
	r := m.FindRegion(addr)
	if r == nil || !r.Contains(addr+uint32(size)-1) {
		return nil, &Fault{Addr: addr, Size: size, Kind: kind, Reason: "unmapped"}
	}
	if m.relaxed {
		return r, nil
	}
	var need Perm
	switch kind {
	case AccessRead:
		need = PermRead
	case AccessWrite:
		need = PermWrite
	case AccessFetch:
		need = PermExec
	}
	if r.Perm&need == 0 {
		return nil, &Fault{Addr: addr, Size: size, Kind: kind,
			Reason: fmt.Sprintf("%s not permitted in region %q", kind, r.Name)}
	}
	if size > 1 && addr%uint32(size) != 0 {
		return nil, &Fault{Addr: addr, Size: size, Kind: kind, Reason: "misaligned"}
	}
	return r, nil
}

func (m *Memory) fire(addr uint32, kind Access, value uint32) {
	for i := range m.watches {
		w := &m.watches[i]
		if w.Kind == kind && addr >= w.Lo && addr <= w.Hi && w.Hit != nil {
			w.Hit(addr, kind, value)
		}
	}
}

func (m *Memory) read(addr uint32, size int, kind Access) (uint32, error) {
	r, err := m.check(addr, size, kind)
	if err != nil {
		return 0, err
	}
	v := r.load(addr-r.Base, uint32(size))
	m.fire(addr, kind, v)
	return v, nil
}

func (m *Memory) write(addr uint32, size int, v uint32) error {
	r, err := m.check(addr, size, AccessWrite)
	if err != nil {
		return err
	}
	r.store(addr-r.Base, uint32(size), v)
	m.fire(addr, AccessWrite, v)
	return nil
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32, kind Access) (byte, error) {
	v, err := m.read(addr, 1, kind)
	return byte(v), err
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) error { return m.write(addr, 1, uint32(v)) }

// Read16 reads a little-endian halfword.
func (m *Memory) Read16(addr uint32, kind Access) (uint16, error) {
	v, err := m.read(addr, 2, kind)
	return uint16(v), err
}

// Write16 writes a little-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) error { return m.write(addr, 2, uint32(v)) }

// Read32 reads a little-endian word.
func (m *Memory) Read32(addr uint32, kind Access) (uint32, error) { return m.read(addr, 4, kind) }

// Write32 writes a little-endian word.
func (m *Memory) Write32(addr uint32, v uint32) error { return m.write(addr, 4, v) }

// span returns the region holding addr, the offset of addr in it, and
// how many of the want bytes from addr lie in the same page; nil when
// addr is unmapped.
func (m *Memory) span(addr uint32, want int) (*Region, uint32, int) {
	r := m.FindRegion(addr)
	if r == nil {
		return nil, 0, 0
	}
	off := addr - r.Base
	return r, off, int(min(uint64(want), uint64(pageSize-off&pageMask), uint64(r.Size-off)))
}

// LoadBlob copies data into memory starting at addr, bypassing permission
// checks. Used by image loaders. It copies a page at a time; an all-zero
// chunk bound for a page that was never written allocates nothing.
func (m *Memory) LoadBlob(addr uint32, data []byte) error {
	for len(data) > 0 {
		r, off, n := m.span(addr, len(data))
		if r == nil {
			return &Fault{Addr: addr, Size: 1, Kind: AccessWrite, Reason: "unmapped (load)"}
		}
		if p := r.page(off, !allZero(data[:n])); p != nil {
			copy(p[off&pageMask:], data[:n])
		}
		addr += uint32(n)
		data = data[n:]
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Dump copies size bytes starting at addr, bypassing permission checks.
func (m *Memory) Dump(addr uint32, size int) ([]byte, error) {
	out := make([]byte, size)
	for i := 0; i < size; {
		a := addr + uint32(i)
		r, off, n := m.span(a, size-i)
		if r == nil {
			return nil, &Fault{Addr: a, Size: 1, Kind: AccessRead, Reason: "unmapped (dump)"}
		}
		if p := r.page(off, false); p != nil {
			copy(out[i:i+n], p[off&pageMask:])
		}
		i += n
	}
	return out, nil
}
