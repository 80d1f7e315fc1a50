package golden

import (
	"runtime"
	"testing"

	"repro/internal/soc"
)

// TestConstructLoadAllocBytes: building a golden platform and loading a
// small image touches a few pages of memory, so it must allocate a few
// pages' worth, not the derivative's whole ROM, RAM and NVM.
func TestConstructLoadAllocBytes(t *testing.T) {
	cfg := soc.DefaultConfig()
	img := build(t, cfg, nil, map[string]string{"test.asm": `
_main:
    LOAD a0, table
    LOAD d0, [a0+0]
    JMP pass
` + passTail + `
.SECTION data
table:
    .WORD 10, 20
.SECTION bss
buf:
    .SPACE 64
`})
	load := func() {
		if err := NewModel(cfg).Load(img); err != nil {
			t.Fatal(err)
		}
	}
	load() // image-keyed tables are built once, outside the measurement
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("construct + load allocates %d bytes per platform, want < %d", per, 64<<10)
	} else {
		t.Logf("construct + load allocates %d bytes per platform", per)
	}
}
