package sqlparser

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp      // punctuation and operators: ( ) , . + - * / % = <> != < <= > >= ||
	tokKeyword // reserved word, normalized to upper case in val
	tokParam   // a ? slot of a statement template; slot is its index
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	val  string
	pos  int
	slot int // tokParam only: the slot's index in source order
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.val)
	default:
		return fmt.Sprintf("%q", t.val)
	}
}

// keywords maps each reserved word of the MYRIAD SQL subset to itself,
// so a lookup can return the canonical spelling (see keyword).
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, w := range strings.Fields(`
	SELECT DISTINCT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET
	UNION ALL AS JOIN INNER LEFT OUTER ON INSERT INTO VALUES UPDATE SET
	DELETE CREATE TABLE DROP INDEX PRIMARY KEY NOT NULL UNIQUE AND OR IN
	BETWEEN LIKE IS TRUE FALSE CASE WHEN THEN ELSE END BEGIN COMMIT
	ROLLBACK WORK EXISTS FETCH FIRST ROWS ONLY`) {
		m[w] = w
	}
	return m
}()

// maxKeyword is the length of the longest keyword.
const maxKeyword = 8

// keyword reports whether word (ASCII, any case) is a reserved word, and
// returns its upper-case spelling. It does not allocate.
func keyword(word string) (string, bool) {
	if len(word) > maxKeyword {
		return "", false
	}
	var buf [maxKeyword]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Error is a parse or lex error with the byte offset in the input.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sql: %s (at offset %d)", e.Msg, e.Pos) }

func errf(pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
