package mem

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// fuzzMap is FuzzMemory's memory map: a ROM/RAM boundary in the middle of
// a page, a RAM region whose end is mid-page, an unmapped gap, and a last
// region whose size is not a multiple of the page size.
var fuzzMap = []struct {
	name       string
	base, size uint32
	perm       Perm
}{
	{"rom", 0x0000, 0x0a00, PermRead | PermExec},
	{"ram", 0x0a00, 0x0c02, PermRead | PermWrite},
	{"nvm", 0x2000, 0x05ff, PermRead | PermWrite | PermExec},
}

// fuzzEdges are the addresses FuzzMemory aims at: page edges, region
// ends, the gap and the top of the address space. A signed offset from
// the input is added to each.
var fuzzEdges = []uint32{
	0x0000, 0x0400, 0x0800, 0x0a00, 0x0c00, 0x1000, 0x1400, 0x1602,
	0x1800, 0x2000, 0x2400, 0x25ff, 0xfffffffc,
}

// refMem is the reference model: one flat byte slice per region and the
// memory rules written out directly, without pages.
type refMem struct {
	data    [][]byte
	relaxed bool
}

func newRefMem() *refMem {
	r := &refMem{}
	for _, g := range fuzzMap {
		r.data = append(r.data, make([]byte, g.size))
	}
	return r
}

// find returns the index of the region holding addr, or -1.
func (r *refMem) find(addr uint32) int {
	for i, g := range fuzzMap {
		if addr >= g.base && uint64(addr) < uint64(g.base)+uint64(g.size) {
			return i
		}
	}
	return -1
}

// check returns the region index for an access, or the error text the
// access must fail with.
func (r *refMem) check(addr uint32, size int, kind Access) (int, string) {
	fault := func(reason string) string {
		return (&Fault{Addr: addr, Size: size, Kind: kind, Reason: reason}).Error()
	}
	i := r.find(addr)
	if i < 0 || uint64(addr)+uint64(size) > uint64(fuzzMap[i].base)+uint64(fuzzMap[i].size) {
		return -1, fault("unmapped")
	}
	if r.relaxed {
		return i, ""
	}
	need := map[Access]Perm{AccessRead: PermRead, AccessWrite: PermWrite, AccessFetch: PermExec}[kind]
	if fuzzMap[i].perm&need == 0 {
		return -1, fault(fmt.Sprintf("%s not permitted in region %q", kind, fuzzMap[i].name))
	}
	if size > 1 && addr%uint32(size) != 0 {
		return -1, fault("misaligned")
	}
	return i, ""
}

func (r *refMem) read(addr uint32, size int, kind Access) (uint32, string) {
	i, errText := r.check(addr, size, kind)
	if i < 0 {
		return 0, errText
	}
	var v uint32
	for k := size - 1; k >= 0; k-- {
		v = v<<8 | uint32(r.data[i][addr-fuzzMap[i].base+uint32(k)])
	}
	return v, ""
}

func (r *refMem) write(addr uint32, size int, v uint32) string {
	i, errText := r.check(addr, size, AccessWrite)
	if i < 0 {
		return errText
	}
	for k := 0; k < size; k++ {
		r.data[i][addr-fuzzMap[i].base+uint32(k)] = byte(v >> (8 * k))
	}
	return ""
}

func (r *refMem) loadBlob(addr uint32, data []byte) string {
	for k, b := range data {
		a := addr + uint32(k)
		i := r.find(a)
		if i < 0 {
			return (&Fault{Addr: a, Size: 1, Kind: AccessWrite, Reason: "unmapped (load)"}).Error()
		}
		r.data[i][a-fuzzMap[i].base] = b
	}
	return ""
}

func (r *refMem) dump(addr uint32, size int) ([]byte, string) {
	out := make([]byte, size)
	for k := range out {
		a := addr + uint32(k)
		i := r.find(a)
		if i < 0 {
			return nil, (&Fault{Addr: a, Size: 1, Kind: AccessRead, Reason: "unmapped (dump)"}).Error()
		}
		out[k] = r.data[i][a-fuzzMap[i].base]
	}
	return out, ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fuzzBlob builds a LoadBlob payload of n bytes: all zero, a dense
// pattern, or zeros with a sparse non-zero byte, so zero chunks meet both
// untouched and materialised pages.
func fuzzBlob(mode byte, n int, seed uint32) []byte {
	b := make([]byte, n)
	for i := range b {
		switch mode % 3 {
		case 1:
			b[i] = byte(seed) + byte(i)*byte(seed>>8|1)
		case 2:
			if i%509 == int(seed%509) {
				b[i] = byte(seed>>16) | 1
			}
		}
	}
	return b
}

// FuzzMemory runs a decoded sequence of reads, writes, LoadBlob, Dump and
// SetRelaxed operations against Memory and against a flat reference model
// written here. Every operation must return the same value, the same
// fault text and fire the same watchpoint events in both, and the final
// contents of every region must match.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{})
	// Relaxed straddling word write across the RAM page edge, read back.
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 1, 4, 4, 0xfe, 0x44, 0x33, 0x22, 0x11, 0, 0, 0, 3, 4, 0xfe, 0, 0, 0, 0, 0, 0, 0})
	// Dense blob across the ROM/RAM boundary, zero blob over it, dump.
	f.Add([]byte{7, 3, 0, 0x11, 0x22, 0x33, 0x44, 0x04, 0x10, 1, 7, 3, 0xf0, 0, 0, 0, 0, 0x02, 0x00, 0, 8, 3, 0xf0, 0, 0, 0, 0, 0x08, 0x00, 0})
	// Word accesses around the short last page and past the region end.
	f.Add([]byte{1, 11, 0xfc, 1, 2, 3, 4, 0, 0, 0, 3, 11, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0x00, 0, 0, 0, 0, 0, 0, 0})
	// Misaligned and permission faults, then the same relaxed.
	f.Add([]byte{1, 0, 0x02, 9, 9, 9, 9, 0, 0, 0, 4, 3, 0x01, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0x02, 9, 9, 9, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		m := &Memory{}
		for _, g := range fuzzMap {
			m.AddRegion(g.name, g.base, g.size, g.perm)
		}
		ref := newRefMem()
		type event struct {
			addr  uint32
			kind  Access
			value uint32
		}
		var got, want []event
		for _, kind := range []Access{AccessRead, AccessWrite, AccessFetch} {
			m.AddWatchpoint(Watchpoint{Lo: 0, Hi: 0xffffffff, Kind: kind,
				Hit: func(addr uint32, kind Access, value uint32) { got = append(got, event{addr, kind, value}) }})
		}
		// Each operation takes 10 bytes: op, edge, offset, 4 value bytes,
		// 2 length bytes, access kind.
		for step := 0; len(in) >= 10; step, in = step+1, in[10:] {
			op := in[0] % 9
			addr := fuzzEdges[int(in[1])%len(fuzzEdges)] + uint32(int32(int8(in[2])))
			v := binary.LittleEndian.Uint32(in[3:7])
			n := int(binary.LittleEndian.Uint16(in[7:9])) % 2600
			kind := Access(in[9] % 3)
			where := fmt.Sprintf("step %d: op %d addr %#x", step, op, addr)
			switch op {
			case 0, 1, 2: // write 8/16/32
				size := []int{1, 2, 4}[op]
				var err error
				switch size {
				case 1:
					v = uint32(byte(v))
					err = m.Write8(addr, byte(v))
				case 2:
					v = uint32(uint16(v))
					err = m.Write16(addr, uint16(v))
				case 4:
					err = m.Write32(addr, v)
				}
				gotErr, wantErr := errText(err), ref.write(addr, size, v)
				if gotErr != wantErr {
					t.Fatalf("%s write: got %q, want %q", where, gotErr, wantErr)
				}
				if wantErr == "" {
					want = append(want, event{addr, AccessWrite, v})
				}
			case 3, 4, 5: // read 8/16/32
				size := []int{1, 2, 4}[op-3]
				var gv uint32
				var err error
				switch size {
				case 1:
					var b byte
					b, err = m.Read8(addr, kind)
					gv = uint32(b)
				case 2:
					var h uint16
					h, err = m.Read16(addr, kind)
					gv = uint32(h)
				case 4:
					gv, err = m.Read32(addr, kind)
				}
				wv, wantErr := ref.read(addr, size, kind)
				if gv != wv || errText(err) != wantErr {
					t.Fatalf("%s read: got %#x/%q, want %#x/%q", where, gv, errText(err), wv, wantErr)
				}
				if wantErr == "" {
					want = append(want, event{addr, kind, wv})
				}
			case 6:
				m.SetRelaxed(v&1 == 1)
				ref.relaxed = v&1 == 1
			case 7:
				blob := fuzzBlob(in[9], n, v)
				if gotErr, wantErr := errText(m.LoadBlob(addr, blob)), ref.loadBlob(addr, blob); gotErr != wantErr {
					t.Fatalf("%s LoadBlob(%d): got %q, want %q", where, n, gotErr, wantErr)
				}
			case 8:
				gb, err := m.Dump(addr, n)
				wb, wantErr := ref.dump(addr, n)
				if errText(err) != wantErr || string(gb) != string(wb) {
					t.Fatalf("%s Dump(%d): got %x/%q, want %x/%q", where, n, gb, errText(err), wb, wantErr)
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("watchpoint events: got %v, want %v", got, want)
		}
		for i, g := range fuzzMap {
			b, err := m.Dump(g.base, int(g.size))
			if err != nil || string(b) != string(ref.data[i]) {
				t.Fatalf("region %s contents differ from the reference (err %v)", g.name, err)
			}
		}
	})
}
