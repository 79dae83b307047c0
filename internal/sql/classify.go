package sql

import "strings"

// ScriptClass says what a `;`-separated script does, judged by the first
// keyword of each statement.
type ScriptClass uint8

const (
	// ScriptSideEffectsOnly: no statement is a SELECT — DDL, INSERT,
	// DECLARE-only and empty scripts. Front ends run these through Exec
	// and the router replicates them to every replica.
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
// INSERT body) per request. It follows the lexer's rules for what
// separates statements — a `;` outside a '…' literal and outside a `--`
// line comment — so any whitespace may follow a keyword and a keyword or
// `;` inside a string never counts. Every front end, the router and the
// result cache's eligibility gate share this one scanner, so no two
// layers can disagree about whether a script writes.
func ClassifyScript(script string) ScriptClass {
	var sel, other bool
	first := true // the statement's first word is still to come
	for i := 0; i < len(script); i++ {
		switch c := script[i]; {
		case c == ';':
			first = true
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
			other = other || first
			first = false
		case first:
			j := i
			for j < len(script) && isIdentPart(rune(script[j])) {
				j++
			}
			switch word := script[i:j]; {
			case strings.EqualFold(word, "SELECT"), strings.EqualFold(word, "WITH"):
				sel = true
			case strings.EqualFold(word, "DECLARE"):
				// Statement-scoped beside a SELECT; session-scoped, and so
				// a side effect, only in a script without one.
			default:
				other = true
			}
			first = false
			if j > i {
				i = j - 1
			}
		}
	}
	switch {
	case !sel:
		return ScriptSideEffectsOnly
	case other:
		return ScriptMixed
	}
	return ScriptReadOnly
}
