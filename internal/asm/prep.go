package asm

import (
	"fmt"
	"sort"
	"strings"
)

// Resolver supplies included source files. The ADVM environment
// materialiser backs this with an in-memory tree; the CLI backs it with
// the file system.
type Resolver interface {
	ReadFile(name string) ([]byte, error)
}

// MapFS is an in-memory Resolver keyed by file name.
type MapFS map[string]string

// ReadFile implements Resolver.
func (m MapFS) ReadFile(name string) ([]byte, error) {
	if src, ok := m[name]; ok {
		return []byte(src), nil
	}
	return nil, fmt.Errorf("file %q not found", name)
}

// Files returns the file names in sorted order.
func (m MapFS) Files() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

const (
	includeDepthLimit = 32
	expandDepthLimit  = 32
)

type macroDef struct {
	name   string
	params []string
	body   []Line
	file   string
	line   int
}

type condFrame struct {
	active    bool // this branch is being assembled
	taken     bool // some branch of this .IF chain was taken
	elseSeen  bool
	parentOff bool // an enclosing frame is inactive
}

// preprocessor expands includes, defines, macros, and conditionals.
type preprocessor struct {
	res     Resolver
	defines map[string][]Token
	macros  map[string]*macroDef
	out     []Line
	errs    []error
	conds   []condFrame
	// collecting is non-nil while inside a .MACRO body.
	collecting  *macroDef
	includes    int
	macroSerial int
}

func newPreprocessor(res Resolver, defines map[string]string) *preprocessor {
	p := &preprocessor{
		res:     res,
		defines: make(map[string][]Token),
		macros:  make(map[string]*macroDef),
	}
	for name, val := range defines {
		if val == "" {
			p.defines[name] = nil
			continue
		}
		toks, err := lexLine("<predefine>", 0, val)
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("predefine %s: %w", name, err))
			continue
		}
		p.defines[name] = toks
	}
	return p
}

func (p *preprocessor) errf(file string, line int, format string, args ...interface{}) {
	p.errs = append(p.errs, errAt(file, line, format, args...))
}

func (p *preprocessor) active() bool {
	for _, c := range p.conds {
		if !c.active || c.parentOff {
			return false
		}
	}
	return true
}

// processFile reads and preprocesses one source file.
func (p *preprocessor) processFile(name string) {
	if p.includes >= includeDepthLimit {
		p.errs = append(p.errs, fmt.Errorf("include depth limit exceeded at %q", name))
		return
	}
	src, err := p.res.ReadFile(name)
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("include %q: %w", name, err))
		return
	}
	p.includes++
	defer func() { p.includes-- }()
	lines := strings.Split(string(src), "\n")
	for i, text := range lines {
		toks, err := lexLine(name, i+1, text)
		if err != nil {
			p.errs = append(p.errs, err)
			continue
		}
		p.handleLine(Line{File: name, Num: i + 1, Toks: toks}, 0)
	}
}

// handleLine dispatches one logical line. depth bounds macro recursion.
func (p *preprocessor) handleLine(ln Line, depth int) {
	if depth > expandDepthLimit {
		p.errf(ln.File, ln.Num, "macro expansion too deep")
		return
	}
	if len(ln.Toks) == 0 {
		return
	}
	t0 := ln.Toks[0]

	// Macro body collection intercepts everything except .ENDM.
	if p.collecting != nil {
		if t0.Kind == TokDirective && t0.Text == "ENDM" {
			m := p.collecting
			p.collecting = nil
			p.macros[strings.ToUpper(m.name)] = m
			return
		}
		if t0.Kind == TokDirective && t0.Text == "MACRO" {
			p.errf(ln.File, ln.Num, "nested .MACRO is not supported")
			return
		}
		p.collecting.body = append(p.collecting.body, ln)
		return
	}

	// Conditional directives are tracked even when skipping.
	if t0.Kind == TokDirective {
		switch t0.Text {
		case "IFDEF", "IFNDEF", "IF":
			p.pushCond(ln, t0.Text)
			return
		case "ELSE":
			p.condElse(ln)
			return
		case "ENDIF":
			if len(p.conds) == 0 {
				p.errf(ln.File, ln.Num, ".ENDIF without matching .IF")
				return
			}
			p.conds = p.conds[:len(p.conds)-1]
			return
		}
	}

	if !p.active() {
		return
	}

	if t0.Kind == TokDirective {
		switch t0.Text {
		case "INCLUDE":
			if len(ln.Toks) != 2 || ln.Toks[1].Kind != TokString {
				p.errf(ln.File, ln.Num, ".INCLUDE expects a quoted file name")
				return
			}
			p.processFile(ln.Toks[1].Text)
			return
		case "DEFINE":
			if len(ln.Toks) < 2 || ln.Toks[1].Kind != TokIdent {
				p.errf(ln.File, ln.Num, ".DEFINE expects a name")
				return
			}
			name := ln.Toks[1].Text
			p.defines[name] = append([]Token(nil), ln.Toks[2:]...)
			return
		case "UNDEF":
			if len(ln.Toks) != 2 || ln.Toks[1].Kind != TokIdent {
				p.errf(ln.File, ln.Num, ".UNDEF expects a name")
				return
			}
			delete(p.defines, ln.Toks[1].Text)
			return
		case "MACRO":
			p.beginMacro(ln)
			return
		case "ENDM":
			p.errf(ln.File, ln.Num, ".ENDM without matching .MACRO")
			return
		}
	}

	// Apply define substitution, then check for a macro invocation.
	toks, err := p.substitute(ln.Toks, 0)
	if err != nil {
		p.errs = append(p.errs, err)
		return
	}
	if len(toks) == 0 {
		return
	}
	// A macro may be invoked after an optional leading "label:".
	callIdx := 0
	if len(toks) >= 2 && toks[0].Kind == TokIdent && toks[1].IsPunct(":") {
		callIdx = 2
	}
	if callIdx < len(toks) && toks[callIdx].Kind == TokIdent {
		if m, ok := p.macros[strings.ToUpper(toks[callIdx].Text)]; ok {
			// Emit any leading label on its own line.
			if callIdx == 2 {
				p.out = append(p.out, Line{File: ln.File, Num: ln.Num, Toks: toks[:2]})
			}
			p.expandMacro(m, ln, toks[callIdx+1:], depth)
			return
		}
	}
	p.out = append(p.out, Line{File: ln.File, Num: ln.Num, Toks: toks})
}

func (p *preprocessor) pushCond(ln Line, kind string) {
	off := !p.active()
	frame := condFrame{parentOff: off}
	if !off {
		switch kind {
		case "IFDEF", "IFNDEF":
			if len(ln.Toks) != 2 || ln.Toks[1].Kind != TokIdent {
				p.errf(ln.File, ln.Num, ".%s expects a single name", kind)
			} else {
				_, defined := p.defines[ln.Toks[1].Text]
				frame.active = defined == (kind == "IFDEF")
			}
		case "IF":
			toks, err := p.substitute(ln.Toks[1:], 0)
			if err != nil {
				p.errs = append(p.errs, err)
				break
			}
			e, next, err := parseExpr(toks, 0, ln.File, ln.Num)
			if err != nil {
				p.errs = append(p.errs, err)
				break
			}
			if next != len(toks) {
				p.errf(ln.File, ln.Num, "trailing tokens after .IF expression")
				break
			}
			v, err := Eval(e, condResolver{})
			if err != nil {
				p.errs = append(p.errs, err)
				break
			}
			if !v.Const {
				p.errf(ln.File, ln.Num, ".IF expression references undefined symbol %q", v.Sym)
				break
			}
			frame.active = v.Val != 0
		}
		frame.taken = frame.active
	}
	p.conds = append(p.conds, frame)
}

// condResolver leaves all symbols relocatable: after define substitution a
// .IF expression must be fully constant, and a relocatable result is
// rejected by the caller.
type condResolver struct{}

func (condResolver) ResolveSym(name string) (Value, error) { return Value{Sym: name}, nil }

func (p *preprocessor) condElse(ln Line) {
	if len(p.conds) == 0 {
		p.errf(ln.File, ln.Num, ".ELSE without matching .IF")
		return
	}
	f := &p.conds[len(p.conds)-1]
	if f.elseSeen {
		p.errf(ln.File, ln.Num, "duplicate .ELSE")
		return
	}
	f.elseSeen = true
	if f.parentOff {
		return
	}
	f.active = !f.taken
	f.taken = f.taken || f.active
}

func (p *preprocessor) beginMacro(ln Line) {
	if len(ln.Toks) < 2 || ln.Toks[1].Kind != TokIdent {
		p.errf(ln.File, ln.Num, ".MACRO expects a name")
		return
	}
	m := &macroDef{name: ln.Toks[1].Text, file: ln.File, line: ln.Num}
	i := 2
	for i < len(ln.Toks) {
		if ln.Toks[i].Kind != TokIdent {
			p.errf(ln.File, ln.Num, "bad macro parameter list")
			return
		}
		m.params = append(m.params, ln.Toks[i].Text)
		i++
		if i < len(ln.Toks) {
			if !ln.Toks[i].IsPunct(",") {
				p.errf(ln.File, ln.Num, "expected ',' in macro parameter list")
				return
			}
			i++
		}
	}
	p.collecting = m
}

// splitArgs splits tokens on top-level commas.
func splitArgs(toks []Token) [][]Token {
	if len(toks) == 0 {
		return nil
	}
	var args [][]Token
	depth := 0
	start := 0
	for i, t := range toks {
		if t.Kind == TokPunct {
			switch t.Text {
			case "(", "[":
				depth++
			case ")", "]":
				depth--
			case ",":
				if depth == 0 {
					args = append(args, toks[start:i])
					start = i + 1
				}
			}
		}
	}
	args = append(args, toks[start:])
	return args
}

func (p *preprocessor) expandMacro(m *macroDef, call Line, argToks []Token, depth int) {
	args := splitArgs(argToks)
	if len(args) != len(m.params) {
		p.errf(call.File, call.Num, "macro %s expects %d argument(s), got %d",
			m.name, len(m.params), len(args))
		return
	}
	bind := make(map[string][]Token, len(m.params))
	for i, name := range m.params {
		bind[name] = args[i]
	}
	p.macroSerial++
	serial := fmt.Sprintf("%d", p.macroSerial)
	for _, bodyLn := range m.body {
		var toks []Token
		for i := 0; i < len(bodyLn.Toks); i++ {
			t := bodyLn.Toks[i]
			// `\@` expands to a per-invocation serial, for unique labels.
			if t.IsPunct("\\") && i+1 < len(bodyLn.Toks) && bodyLn.Toks[i+1].IsPunct("@") {
				if len(toks) > 0 && toks[len(toks)-1].Kind == TokIdent {
					toks[len(toks)-1].Text += serial
				} else {
					p.errf(bodyLn.File, bodyLn.Num, `\@ must follow an identifier`)
				}
				i++
				continue
			}
			if t.Kind == TokIdent {
				if rep, ok := bind[t.Text]; ok {
					toks = appendRetagged(toks, rep, call.File, call.Num)
					continue
				}
			}
			toks = append(toks, t)
		}
		p.handleLine(Line{File: call.File, Num: call.Num, Toks: toks}, depth+1)
	}
}

// appendRetagged appends toks to dst moved to the use site file:line, each
// remembering in Src the file it was written in.
func appendRetagged(dst, toks []Token, file string, line int) []Token {
	for _, t := range toks {
		if t.Src == "" {
			t.Src = t.File
		}
		t.File, t.Line = file, line
		dst = append(dst, t)
	}
	return dst
}

// substitute applies define replacement to a token list. A list that
// names no define comes back as is, without allocating; otherwise the
// replacement is built in one presized slice. Either way the caller must
// not modify the result in place: it may alias toks.
func (p *preprocessor) substitute(toks []Token, depth int) ([]Token, error) {
	if depth > expandDepthLimit {
		if len(toks) > 0 {
			return nil, errAt(toks[0].File, toks[0].Line, "define expansion too deep (self-referential .DEFINE?)")
		}
		return toks, nil
	}
	first := -1
	n := len(toks)
	for i, t := range toks {
		if rep, ok := p.define(t); ok {
			if first < 0 {
				first = i
			}
			n += len(rep) - 1
		}
	}
	if first < 0 {
		return toks, nil
	}
	out := make([]Token, first, n)
	copy(out, toks[:first])
	for _, t := range toks[first:] {
		if rep, ok := p.define(t); ok {
			out = appendRetagged(out, rep, t.File, t.Line)
			continue
		}
		out = append(out, t)
	}
	return p.substitute(out, depth+1)
}

// define returns the replacement for t when t names a define.
func (p *preprocessor) define(t Token) ([]Token, bool) {
	if t.Kind != TokIdent {
		return nil, false
	}
	rep, ok := p.defines[t.Text]
	return rep, ok
}
