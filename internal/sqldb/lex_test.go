package sqldb

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzLex checks lex against oracleLex, the original map-and-ToUpper lexer
// kept here verbatim as a reference: every input must yield the same tokens
// (kind, text, int and float value) and the same error-ness.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"'it''s'", "''''", "''", "'abc", "sElEcT", "iNtEgEr", "VARCHAR(10)",
		"create table t (k integer primary key, v varchar(8), f real, n null)",
		"-3", "1e+5", "1e999", "<>", "!", "\xC5", "ſelect", "ı",
		"INSERT INTO t VALUES (1, '" + strings.Repeat("a", 100_000) + "')",
		// 30 tokens: longer than Parse's stack buffer.
		"SELECT a, b, c FROM t WHERE a = 1 AND b = 'x' AND c <= 2.5 AND d != -4 ORDER BY e DESC LIMIT 7",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		want, werr := oracleLex(sql)
		got, gerr := lex(nil, sql)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("lex(%q): error %v, oracle error %v", sql, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lex(%q) =\n%v\noracle:\n%v", sql, got, want)
		}
	})
}

// oracleKeywords and oracleLex are the lexer as it stood before token
// texts aliased the input. Test-only: FuzzLex compares lex against them.
var oracleKeywords = map[string]bool{
	"CREATE": true, "TABLE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "SELECT": true, "FROM": true, "WHERE": true,
	"UPDATE": true, "SET": true, "DELETE": true, "AND": true,
	"INT": true, "INTEGER": true, "FLOAT": true, "REAL": true,
	"TEXT": true, "VARCHAR": true, "PRIMARY": true, "KEY": true,
	"NULL": true, "LIMIT": true, "ORDER": true, "BY": true,
	"COUNT": true, "ASC": true, "DESC": true,
}

func oracleLex(sql string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(sql) {
					return nil, fmt.Errorf("sqldb: unterminated string literal")
				}
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(sql[j])
				j++
			}
			toks = append(toks, token{kind: tkString, text: sb.String()})
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
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(sql) && (unicode.IsLetter(rune(sql[j])) || unicode.IsDigit(rune(sql[j])) || sql[j] == '_') {
				j++
			}
			word := sql[i:j]
			up := strings.ToUpper(word)
			if oracleKeywords[up] {
				toks = append(toks, token{kind: tkKeyword, text: up})
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
				toks = append(toks, token{kind: tkPunct, text: string(c)})
				i++
			}
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '*' || c == '=':
			toks = append(toks, token{kind: tkPunct, text: string(c)})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q", c)
		}
	}
	return append(toks, token{kind: tkEOF}), nil
}
