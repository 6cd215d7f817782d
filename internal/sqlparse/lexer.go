// Package sqlparse implements the SQL front-end: a lexer and
// recursive-descent parser for the engine's SQL dialect, including the
// paper's AI-analytics extension — PREDICT {VALUE|CLASS} OF ... TRAIN ON ...
// (Listings 1 and 2 in the paper).
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct // operators and punctuation, e.g. ( ) , = <> <= >= + - * / %
	TokParam // query parameter placeholder: '?' (Text empty) or '$n' (Text = n)
)

// Token is a lexical token with position information for error messages.
type Token struct {
	Kind TokenKind
	// Punct is a one-byte punctuation token's byte, and 0 for every other
	// token, two-byte operators included, so the parser matches ( ) , and
	// the like with one byte compare.
	Punct byte
	Text  string // identifiers are kept verbatim; keywords match case-insensitively
	Pos   int    // byte offset in the input
}

// Lexer splits SQL text into tokens. The parser pulls them one at a time,
// so no token array is built for the statement.
type Lexer struct {
	src string
	pos int
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	if r, size := l.rune(); isIdentStart(r) {
		for l.pos += size; l.pos < len(l.src); l.pos += size {
			if r, size = l.rune(); !isIdentPart(r) {
				break
			}
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start}, nil
	}
	switch {
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if ch == 'e' || ch == 'E' {
				// scientific notation
				if l.pos+1 < len(l.src) && (isDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+') {
					l.pos += 2
					for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
						l.pos++
					}
				}
				break
			}
			if !isDigit(ch) {
				break
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		return l.stringLit()
	case c == '?':
		l.pos++
		return Token{Kind: TokParam, Pos: start}, nil
	case c == '$':
		l.pos++
		digits := l.pos
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == digits {
			return Token{}, fmt.Errorf("sql: expected parameter number after '$' at offset %d", start)
		}
		return Token{Kind: TokParam, Text: l.src[digits:l.pos], Pos: start}, nil
	default:
		// multi-char operators first
		if l.pos+1 < len(l.src) {
			switch op := l.src[l.pos : l.pos+2]; op {
			case "<>", "<=", ">=", "!=", "==":
				l.pos += 2
				return Token{Kind: TokPunct, Text: op, Pos: start}, nil
			}
		}
		if strings.IndexByte("()[],;=<>+-*/%.", c) >= 0 {
			l.pos++
			return Token{Kind: TokPunct, Punct: c, Text: l.src[start:l.pos], Pos: start}, nil
		}
		r, _ := l.rune()
		return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", r, l.pos)
	}
}

// rune decodes the character at the lexer's position, which is in range;
// ASCII, the common case, takes no call.
func (l *Lexer) rune() (rune, int) {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

// stringLit lexes a quoted literal; a doubled quote stands for one. The text
// is copied out of the source, since a TEXT value it becomes may outlive the
// statement.
func (l *Lexer) stringLit() (Token, error) {
	start := l.pos
	escaped := false
	for i := start + 1; ; i += 2 {
		j := strings.IndexByte(l.src[i:], '\'')
		if j < 0 {
			l.pos = len(l.src)
			return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		}
		i += j
		if i+1 < len(l.src) && l.src[i+1] == '\'' {
			escaped = true
			continue
		}
		l.pos = i + 1
		text := l.src[start+1 : i]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		} else {
			text = strings.Clone(text)
		}
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if strings.HasPrefix(l.src[l.pos:], "--") {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if strings.HasPrefix(l.src[l.pos:], "/*") {
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
			continue
		}
		return
	}
}

func isIdentStart(c rune) bool {
	if c < utf8.RuneSelf {
		return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
	}
	return unicode.IsLetter(c)
}

func isIdentPart(c rune) bool {
	if c < utf8.RuneSelf {
		return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
	}
	return unicode.IsLetter(c) || unicode.IsDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
