package asm

import (
	"fmt"
	"strings"
	"testing"
)

var sinkToks []Token

// TestLexLineAllocs: a blank or comment-only line lexes without
// allocating; any other line allocates its token slice once.
func TestLexLineAllocs(t *testing.T) {
	for _, src := range []string{"", "   \t", "; a comment only", "\t ; indented comment\r"} {
		n := testing.AllocsPerRun(100, func() { sinkToks, _ = lexLine("t.asm", 1, src) })
		if n != 0 || sinkToks != nil {
			t.Errorf("lexLine(%q): %v allocs, toks %v; want 0 and nil", src, n, sinkToks)
		}
	}
	src := "loop: INSERT d14, d14, TEST_PAGE, 0x10, (PAGE_FIELD_SIZE << 2) ; tail"
	if n := testing.AllocsPerRun(100, func() { sinkToks, _ = lexLine("t.asm", 1, src) }); n != 1 {
		t.Errorf("lexLine(%q): %v allocs, want 1", src, n)
	}
	if len(sinkToks) != 16 {
		t.Errorf("lexLine(%q) = %d tokens", src, len(sinkToks))
	}
}

// TestSubstituteDefineFree: a line naming no define passes through
// substitution as the same slice, without allocating.
func TestSubstituteDefineFree(t *testing.T) {
	p := newPreprocessor(MapFS{}, map[string]string{"PLAT_GOLDEN": "", "CallAddr": "A12"})
	toks, err := lexLine("t.asm", 3, "    MOV d1, [a2+4]")
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() { sinkToks, _ = p.substitute(toks, 0) })
	if n != 0 {
		t.Errorf("define-free substitute: %v allocs, want 0", n)
	}
	if len(sinkToks) != len(toks) || &sinkToks[0] != &toks[0] {
		t.Error("define-free substitute did not return its input")
	}
}

// TestDefineProvenance: tokens that defines, define chains, predefines
// and macro arguments inject carry the use site in File/Line and the
// file they were written in in Src, exactly.
func TestDefineProvenance(t *testing.T) {
	fs := MapFS{"layer.inc": `.DEFINE CallAddr A12
.DEFINE TARGET CallAddr
.DEFINE PAIR d1, d2
.MACRO SETR r, v
    MOV r, v
.ENDM
`}
	lines, errs := Expand("t.asm", `.INCLUDE "layer.inc"
; comment
    MOV TARGET, PAIR, PLAT
    SETR TARGET, 5
    ADD d3, d3, 1
`, Options{Resolver: fs, Defines: map[string]string{"PLAT": "7"}})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	var got []string
	for _, ln := range lines {
		var ts []string
		for _, tok := range ln.Toks {
			ts = append(ts, fmt.Sprintf("%s@%s:%d<%s", tok, tok.File, tok.Line, tok.Src))
		}
		got = append(got, fmt.Sprintf("%s: %s", ln.Pos(), strings.Join(ts, " ")))
	}
	want := []string{
		"t.asm:3: MOV@t.asm:3< A12@t.asm:3<layer.inc ,@t.asm:3< d1@t.asm:3<layer.inc ,@t.asm:3<layer.inc d2@t.asm:3<layer.inc ,@t.asm:3< 7@t.asm:3<<predefine>",
		"t.asm:4: MOV@layer.inc:5< A12@t.asm:4<layer.inc ,@layer.inc:5< 5@t.asm:4<t.asm",
		"t.asm:5: ADD@t.asm:5< d3@t.asm:5< ,@t.asm:5< d3@t.asm:5< ,@t.asm:5< 1@t.asm:5<",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("expanded provenance:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
