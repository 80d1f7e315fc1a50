// Package asm implements the SC88 macro assembler: a line-oriented,
// two-pass assembler with the include/define/conditional machinery the
// ADVM abstraction layer depends on (.INCLUDE, .EQU, .DEFINE, .MACRO,
// .IFDEF/.IF/.ELSE/.ENDIF). Its surface syntax follows the paper's
// Figures 6 and 7: `TEST_PAGE .EQU TEST1_TARGET_PAGE`, register aliases
// via `.DEFINE CallAddr A12`, and bare-identifier immediates
// (`INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE`).
package asm

import (
	"fmt"
	"strings"
)

// TokKind classifies a token.
type TokKind uint8

// Token kinds.
const (
	TokIdent TokKind = iota
	TokNumber
	TokString
	TokPunct
	TokDirective // ".WORD", ".EQU", ... (stored upper-case without dot)
)

// Token is one lexical token with source provenance.
type Token struct {
	Kind TokKind
	Text string // identifier spelling, punct spelling, directive name, string contents
	Val  int64  // numeric value for TokNumber
	File string
	Line int
	// Src is the file the token was originally written in when macro or
	// define expansion retagged it to the use site; empty when the token
	// still sits where its author wrote it (Src == "" means File). Static
	// analysis uses it to tell author-written tokens from text injected
	// by abstraction-layer defines.
	Src string
}

// Origin returns the file the token was originally written in: Src when
// expansion moved it, File otherwise.
func (t Token) Origin() string {
	if t.Src != "" {
		return t.Src
	}
	return t.File
}

func (t Token) String() string {
	switch t.Kind {
	case TokNumber:
		return fmt.Sprintf("%d", t.Val)
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	case TokDirective:
		return "." + t.Text
	default:
		return t.Text
	}
}

// IsPunct reports whether the token is the given punctuation.
func (t Token) IsPunct(p string) bool { return t.Kind == TokPunct && t.Text == p }

// IsIdent reports whether the token is an identifier equal (case-
// insensitively) to s.
func (t Token) IsIdent(s string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, s)
}

// Line is one logical source line after preprocessing.
type Line struct {
	File string
	Num  int
	Toks []Token
}

// Pos renders the line's source position.
func (l Line) Pos() string { return fmt.Sprintf("%s:%d", l.File, l.Num) }

// SyntaxError is a lexical or parse error at a source position.
type SyntaxError struct {
	File string
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

func errAt(file string, line int, format string, args ...interface{}) error {
	return &SyntaxError{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// multiPuncts are the multi-character operators, longest first.
var multiPuncts = []string{"<<", ">>"}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// lexLine tokenises one physical source line. Comments start with ';'.
// Tokens collect in a stack buffer and leave in one exact-size slice, so
// a line allocates its token slice once, and a blank or comment-only line
// returns nil without allocating.
func lexLine(file string, num int, src string) ([]Token, error) {
	var buf [32]Token
	toks := buf[:0]
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ';':
			i = n // comment to end of line
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '.' && i+1 < n && isIdentStart(src[i+1]):
			// A leading dot starts a directive.
			j := i + 1
			for j < n && isIdentChar(src[j]) {
				j++
			}
			name := src[i+1 : j]
			toks = append(toks, Token{Kind: TokDirective, Text: strings.ToUpper(name), File: file, Line: num})
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isIdentChar(src[j]) {
				j++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[i:j], File: file, Line: num})
			i = j
		case isDigit(c):
			j := i
			base := 10
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				base = 16
				j = i + 2
				for j < n && isHex(src[j]) {
					j++
				}
				if j == i+2 {
					return nil, errAt(file, num, "malformed hex literal")
				}
			} else if c == '0' && i+1 < n && (src[i+1] == 'b' || src[i+1] == 'B') {
				base = 2
				j = i + 2
				for j < n && (src[j] == '0' || src[j] == '1') {
					j++
				}
				if j == i+2 {
					return nil, errAt(file, num, "malformed binary literal")
				}
			} else {
				for j < n && isDigit(src[j]) {
					j++
				}
			}
			text := src[i:j]
			v, err := parseInt(text, base)
			if err != nil {
				return nil, errAt(file, num, "bad number %q", text)
			}
			toks = append(toks, Token{Kind: TokNumber, Text: text, Val: v, File: file, Line: num})
			i = j
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < n && src[j] != '"' {
				ch := src[j]
				if ch == '\\' && j+1 < n {
					j++
					switch src[j] {
					case 'n':
						ch = '\n'
					case 't':
						ch = '\t'
					case 'r':
						ch = '\r'
					case '0':
						ch = 0
					case '\\':
						ch = '\\'
					case '"':
						ch = '"'
					default:
						return nil, errAt(file, num, "bad escape \\%c", src[j])
					}
				}
				sb.WriteByte(ch)
				j++
			}
			if j >= n {
				return nil, errAt(file, num, "unterminated string")
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), File: file, Line: num})
			i = j + 1
		case c == '\'':
			// Character literal: 'A' or '\n'.
			j := i + 1
			if j >= n {
				return nil, errAt(file, num, "unterminated character literal")
			}
			var v byte
			if src[j] == '\\' && j+1 < n {
				j++
				switch src[j] {
				case 'n':
					v = '\n'
				case 't':
					v = '\t'
				case 'r':
					v = '\r'
				case '0':
					v = 0
				case '\\':
					v = '\\'
				case '\'':
					v = '\''
				default:
					return nil, errAt(file, num, "bad escape \\%c", src[j])
				}
			} else {
				v = src[j]
			}
			j++
			if j >= n || src[j] != '\'' {
				return nil, errAt(file, num, "unterminated character literal")
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[i : j+1], Val: int64(v), File: file, Line: num})
			i = j + 1
		default:
			matched := false
			for _, mp := range multiPuncts {
				if strings.HasPrefix(src[i:], mp) {
					toks = append(toks, Token{Kind: TokPunct, Text: mp, File: file, Line: num})
					i += len(mp)
					matched = true
					break
				}
			}
			if matched {
				break
			}
			switch c {
			case ',', ':', '[', ']', '(', ')', '+', '-', '*', '/', '%', '&', '|', '^', '~', '#', '\\', '=', '<', '>', '!', '@':
				toks = append(toks, Token{Kind: TokPunct, Text: src[i : i+1], File: file, Line: num})
				i++
			default:
				return nil, errAt(file, num, "unexpected character %q", string(c))
			}
		}
	}
	if len(toks) == 0 {
		return nil, nil
	}
	return append([]Token(nil), toks...), nil
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func parseInt(text string, base int) (int64, error) {
	s := text
	if base == 16 || base == 2 {
		s = text[2:]
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		var d uint64
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", string(c))
		}
		if d >= uint64(base) {
			return 0, fmt.Errorf("digit %q out of range for base %d", string(c), base)
		}
		v = v*uint64(base) + d
		if v > 0xffffffff {
			return 0, fmt.Errorf("constant overflows 32 bits")
		}
	}
	return int64(v), nil
}

// LexLine tokenises one physical source line; exported for tools (the
// abstraction-violation lint) that analyse assembler sources without
// assembling them.
func LexLine(file string, num int, src string) ([]Token, error) {
	return lexLine(file, num, src)
}
