package pgwire

import (
	"math"
	"testing"
)

// FuzzRewritePlaceholders: the $n rewrite never panics, never reports
// more parameters than a Bind can supply, and leaves nothing for a
// second pass to rewrite: every placeholder it left in place sits in a
// quote, a comment or a dollar-quoted string, and the @pn it wrote
// opens none of those.
func FuzzRewritePlaceholders(f *testing.F) {
	for _, q := range []string{
		`SELECT a FROM t WHERE a = $1 AND b = $2`,
		`SELECT $2 FROM t`,
		`SELECT 'it''s $1' FROM t WHERE "a""$2" = $3`,
		"SELECT a -- $3\nFROM t WHERE a = $1",
		`SELECT a /* outer /* $9 */ still */ FROM t WHERE a = $1`,
		`SELECT $tag$body $1 $$ more$tag$ FROM t WHERE a = $2`,
		`SELECT $$unterminated $1`,
		`SELECT a + $1abc FROM t`,
		`SELECT $32767, $32768, $999999999`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		out, n, err := rewritePlaceholders(q)
		if err != nil {
			return
		}
		if n < 0 || n > math.MaxInt16 {
			t.Fatalf("%q: %d parameters, want 0 to %d", q, n, math.MaxInt16)
		}
		again, n2, err := rewritePlaceholders(out)
		if err != nil || again != out || n2 != 0 {
			t.Fatalf("%q: second pass over %q gave (%q, %d, %v), want it unchanged with no parameters", q, out, again, n2, err)
		}
	})
}
