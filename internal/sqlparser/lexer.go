package sqlparser

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer converts SQL text into a token stream for the parser and for
// Shape; errors surface as *Error with byte offsets.
type lexer struct {
	src   string
	pos   int
	slots int // ? slots lexed so far
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return errf(l.pos, "unterminated block comment")
			}
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(), nil
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '.':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.lexNumber()
		}
		l.pos++
		return token{kind: tokOp, val: ".", pos: start}, nil
	case c == '\'':
		return l.lexString()
	case c == '"':
		return l.lexQuotedIdent()
	case c == '?':
		l.pos++
		l.slots++
		return token{kind: tokParam, val: "?", pos: start, slot: l.slots - 1}, nil
	}
	// Multi-byte operators first.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		return token{kind: tokOp, val: two, pos: start}, nil
	}
	switch c {
	case '(', ')', ',', '+', '-', '*', '/', '%', '=', '<', '>', ';':
		l.pos++
		return token{kind: tokOp, val: string(c), pos: start}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return token{}, errf(start, "unexpected character %q", r)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if kw, ok := keyword(word); ok {
		return token{kind: tokKeyword, val: kw, pos: start}
	}
	return token{kind: tokIdent, val: word, pos: start}
}

func (l *lexer) lexQuotedIdent() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
				b.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokIdent, val: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, errf(start, "unterminated quoted identifier")
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	lit := l.src[start:l.pos]
	if lit == "." {
		return token{}, errf(start, "malformed number")
	}
	if r, _ := utf8.DecodeRuneInString(l.src[l.pos:]); unicode.IsLetter(r) {
		return token{}, errf(l.pos, "malformed number %q", lit+string(r))
	}
	return token{kind: tokNumber, val: lit, pos: start}, nil
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, val: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, errf(start, "unterminated string literal")
}
