package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Token kinds.
type tokKind uint8

const (
	tkIdent tokKind = iota
	tkKeyword
	tkInt
	tkFloat
	tkString
	tkPunct // ( ) , ; * =  < > <= >= != <>
	tkEOF
)

type token struct {
	kind tokKind
	text string // keywords upper-cased
	i    int64
	f    float64
}

// keywordsByLen holds the canonical upper-case keywords, indexed by length.
var keywordsByLen = [...][]string{
	2: {"BY"},
	3: {"SET", "AND", "INT", "KEY", "ASC"},
	4: {"INTO", "FROM", "REAL", "TEXT", "NULL", "DESC"},
	5: {"TABLE", "WHERE", "FLOAT", "LIMIT", "ORDER", "COUNT"},
	6: {"CREATE", "INSERT", "VALUES", "SELECT", "UPDATE", "DELETE"},
	7: {"INTEGER", "VARCHAR", "PRIMARY"},
}

// wordStart and wordByte classify the bytes that start and continue an
// identifier or keyword. A byte is read as the Latin-1 rune of the same
// value, so most of 0xAA-0xFF count as letters too.
var wordStart, wordByte [256]bool

func init() {
	for c := range 256 {
		wordStart[c] = unicode.IsLetter(rune(c)) || c == '_'
		wordByte[c] = wordStart[c] || unicode.IsDigit(rune(c))
	}
}

// keyword returns the canonical keyword that word spells in any ASCII case.
// Folding ASCII only is exact: the two non-ASCII runes that upper-case to
// ASCII letters (U+0131 ı, U+017F ſ) end in bytes 0xB1 and 0xBF, which the
// lexer never admits into a word.
func keyword(word string) (string, bool) {
	if len(word) >= len(keywordsByLen) {
		return "", false
	}
next:
	for _, kw := range keywordsByLen[len(word)] {
		for i := 0; i < len(word); i++ {
			c := word[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return kw, true
	}
	return "", false
}

// lex appends the tokens of sql, terminated by a tkEOF token, to toks. Token
// texts are substrings of sql (or canonical keywords); a string literal is
// copied only to unescape a doubled quote.
func lex(toks []token, sql string) ([]token, error) {
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			escaped := false
			for {
				k := strings.IndexByte(sql[j:], '\'')
				if k < 0 {
					return nil, fmt.Errorf("sqldb: unterminated string literal")
				}
				j += k
				if j+1 < len(sql) && sql[j+1] == '\'' { // escaped quote
					escaped = true
					j += 2
					continue
				}
				break
			}
			text := sql[i+1 : j]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{kind: tkString, text: text})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '-' && i+1 < len(sql) && sql[i+1] >= '0' && sql[i+1] <= '9'):
			j := i + 1
			isFloat := false
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.' || sql[j] == 'e' || sql[j] == 'E' ||
				((sql[j] == '+' || sql[j] == '-') && (sql[j-1] == 'e' || sql[j-1] == 'E'))) {
				if sql[j] == '.' || sql[j] == 'e' || sql[j] == 'E' {
					isFloat = true
				}
				j++
			}
			text := sql[i:j]
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, fmt.Errorf("sqldb: bad number %q", text)
				}
				toks = append(toks, token{kind: tkFloat, f: f, text: text})
			} else {
				n, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sqldb: bad integer %q", text)
				}
				toks = append(toks, token{kind: tkInt, i: n, text: text})
			}
			i = j
		case wordStart[c]:
			j := i + 1
			for j < len(sql) && wordByte[sql[j]] {
				j++
			}
			word := sql[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{kind: tkKeyword, text: kw})
			} else {
				toks = append(toks, token{kind: tkIdent, text: word})
			}
			i = j
		case c == '<' || c == '>' || c == '!':
			if i+1 < len(sql) && (sql[i+1] == '=' || (c == '<' && sql[i+1] == '>')) {
				toks = append(toks, token{kind: tkPunct, text: sql[i : i+2]})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sqldb: unexpected '!'")
			} else {
				toks = append(toks, token{kind: tkPunct, text: sql[i : i+1]})
				i++
			}
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '*' || c == '=':
			toks = append(toks, token{kind: tkPunct, text: sql[i : i+1]})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q", c)
		}
	}
	return append(toks, token{kind: tkEOF}), nil
}
