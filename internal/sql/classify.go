package sql

import "strings"

// ScriptClass says what a `;`-separated script does, judged by the first
// keyword of each statement.
type ScriptClass uint8

const (
	// ScriptSideEffectsOnly: no statement is a SELECT — DDL, INSERT,
	// DECLARE-only and empty scripts. Front ends run these through Exec
	// (which refuses a DECLARE: it binds only for a SELECT after it in
	// its own script) and the router replicates them to every replica.
	ScriptSideEffectsOnly ScriptClass = iota
	// ScriptReadOnly: at least one SELECT (or WITH … SELECT) and
	// otherwise only DECLAREs. Streamable, cacheable, routable to any one
	// replica.
	ScriptReadOnly
	// ScriptMixed: a SELECT beside at least one statement that is
	// neither SELECT nor DECLARE. The engine's ad-hoc surface executes
	// the side effects and streams the SELECT; nothing may cache it, and
	// the router cannot both replicate and route it.
	ScriptMixed
)

// ClassifyScript classifies a script without parsing or allocating: the
// warm SELECT path must not pay a throwaway parse (or a copy of every
// INSERT body) per request. Every front end, the router and the result
// cache's eligibility gate share this one scanner (eachStatement), so
// no two layers can disagree about whether a script writes.
func ClassifyScript(script string) ScriptClass {
	var sel, other bool
	eachStatement(script, func(_, word string) {
		switch {
		case strings.EqualFold(word, "SELECT"), strings.EqualFold(word, "WITH"):
			sel = true
		case !strings.EqualFold(word, "DECLARE"):
			// A DECLARE binds for the SELECT after it; a DECLARE-only
			// script binds nothing and is one the engine refuses.
			other = true
		}
	})
	switch {
	case !sel:
		return ScriptSideEffectsOnly
	case other:
		return ScriptMixed
	}
	return ScriptReadOnly
}

// SplitStatements returns the script's non-empty statements in order,
// without their separating `;`, cut where ClassifyScript sees a
// statement boundary.
func SplitStatements(script string) []string {
	var out []string
	eachStatement(script, func(stmt, _ string) { out = append(out, stmt) })
	return out
}

// eachStatement calls fn with each statement of script that holds more
// than whitespace and comments, and with the statement's first word (""
// when it starts with a literal or punctuation).
func eachStatement(script string, fn func(stmt, word string)) {
	for start := 0; start <= len(script); {
		end, word, empty := scanStatement(script, start)
		if !empty {
			fn(script[start:end], word)
		}
		start = end + 1
	}
}

// scanStatement finds the end of the statement that starts at
// script[i]: the offset of the `;` that ends it, or len(script). It
// follows the lexer's rules for what separates statements — a `;`
// outside a '…' literal and outside a `--` line comment — so any
// whitespace may follow a keyword and a keyword or `;` inside a string
// never counts.
func scanStatement(script string, i int) (end int, word string, empty bool) {
	empty = true
	for ; i < len(script); i++ {
		switch c := script[i]; {
		case c == ';':
			return i, word, empty
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case c == '-' && i+1 < len(script) && script[i+1] == '-':
			for i < len(script) && script[i] != '\n' {
				i++
			}
		case c == '\'':
			// A doubled '' reads as two adjacent literals, which ends at
			// the same place.
			for i++; i < len(script) && script[i] != '\''; i++ {
			}
			empty = false
		case empty:
			j := i
			for j < len(script) && isIdentPart(rune(script[j])) {
				j++
			}
			word, empty = script[i:j], false
			if j > i {
				i = j - 1
			}
		}
	}
	return len(script), word, empty
}
