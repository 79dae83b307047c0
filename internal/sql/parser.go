package sql

import (
	"fmt"
	"strconv"
	"strings"

	"raven/internal/types"
)

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	var out []Statement
	for !p.at(TokEOF, "") {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(TokSymbol, ";") {
			break
		}
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return out, nil
}

type parser struct {
	toks []Token
	pos  int
	src  string
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *parser) accept(k TokenKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k TokenKind, text string) (Token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", k)
	}
	return Token{}, p.errf("expected %s, found %q", want, p.cur().Text)
}

// expectSoftKeyword consumes an identifier that must spell the given word
// (case-insensitively). MODEL and DATA are soft keywords: they introduce
// PREDICT arguments but remain usable as table/column names.
func (p *parser) expectSoftKeyword(word string) error {
	if p.at(TokIdent, "") && strings.EqualFold(p.cur().Text, word) {
		p.next()
		return nil
	}
	return p.errf("expected %s, found %q", word, p.cur().Text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "SELECT"), p.at(TokKeyword, "WITH"):
		return p.selectStmt()
	case p.at(TokKeyword, "CREATE"):
		return p.createTable()
	case p.at(TokKeyword, "DROP"):
		return p.dropTable()
	case p.at(TokKeyword, "INSERT"):
		return p.insert()
	case p.at(TokKeyword, "DECLARE"):
		return p.declare()
	default:
		return nil, p.errf("expected statement, found %q", p.cur().Text)
	}
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	var ctes []CTE
	if p.accept(TokKeyword, "WITH") {
		for {
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			inner, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			ctes = append(ctes, CTE{Name: name.Text, Select: inner})
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{CTEs: ctes, Limit: -1}
	st.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "FROM") {
		from, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		st.From = from
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Col: c}
			if p.accept(TokKeyword, "DESC") {
				it.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.expression()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expect(TokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.Text
	} else if p.at(TokIdent, "") {
		item.Alias = p.next().Text
	}
	return item, nil
}

// tableRef parses primary refs joined by JOIN ... ON chains.
func (p *parser) tableRef() (TableRef, error) {
	left, err := p.tablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept(TokKeyword, "INNER") {
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept(TokKeyword, "JOIN") {
			break
		}
		right, err := p.tablePrimary()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.expression()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Left: left, Right: right, On: on}
	}
	return left, nil
}

func (p *parser) tablePrimary() (TableRef, error) {
	switch {
	case p.at(TokKeyword, "PREDICT"):
		return p.predictRef()
	case p.accept(TokSymbol, "("):
		inner, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: inner}
		if p.accept(TokKeyword, "AS") {
			a, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			ref.Alias = a.Text
		} else if p.at(TokIdent, "") {
			ref.Alias = p.next().Text
		}
		return ref, nil
	case p.at(TokIdent, ""):
		name := p.next().Text
		ref := &TableName{Name: name}
		if p.accept(TokKeyword, "AS") {
			a, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			ref.Alias = a.Text
		} else if p.at(TokIdent, "") {
			ref.Alias = p.next().Text
		}
		return ref, nil
	default:
		return nil, p.errf("expected table reference, found %q", p.cur().Text)
	}
}

// predictRef parses
//
//	PREDICT(MODEL = @m, DATA = <table ref> AS d) WITH (col type, ...) AS p
func (p *parser) predictRef() (TableRef, error) {
	if _, err := p.expect(TokKeyword, "PREDICT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	if err := p.expectSoftKeyword("MODEL"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "="); err != nil {
		return nil, err
	}
	ref := &PredictRef{}
	switch {
	case p.at(TokVariable, ""):
		ref.ModelVar = p.next().Text
	case p.at(TokString, ""):
		ref.ModelName = p.next().Text
	default:
		return nil, p.errf("PREDICT MODEL must be @variable or 'name', found %q", p.cur().Text)
	}
	if _, err := p.expect(TokSymbol, ","); err != nil {
		return nil, err
	}
	if err := p.expectSoftKeyword("DATA"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "="); err != nil {
		return nil, err
	}
	data, err := p.tablePrimary()
	if err != nil {
		return nil, err
	}
	// "DATA = source AS d": the alias may have attached to the primary.
	switch d := data.(type) {
	case *TableName:
		ref.Data = d
		ref.DataAlias = d.Alias
	case *SubqueryRef:
		ref.Data = d
		ref.DataAlias = d.Alias
	default:
		ref.Data = data
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "WITH"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		ref.OutputCols = append(ref.OutputCols, col)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		ref.Alias = a.Text
	} else if p.at(TokIdent, "") {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

func (p *parser) columnDef() (types.Column, error) {
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return types.Column{}, err
	}
	t := p.next()
	var dt types.DataType
	switch t.Text {
	case "FLOAT":
		dt = types.Float
	case "INT", "BIGINT":
		dt = types.Int
	case "BOOL", "BIT":
		dt = types.Bool
	case "VARCHAR":
		dt = types.String
		// optional (n)
		if p.accept(TokSymbol, "(") {
			if _, err := p.expect(TokNumber, ""); err != nil {
				return types.Column{}, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return types.Column{}, err
			}
		}
	default:
		return types.Column{}, p.errf("unknown column type %q", t.Text)
	}
	return types.Column{Name: name.Text, Type: dt}, nil
}

func (p *parser) createTable() (Statement, error) {
	p.next() // CREATE
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name.Text}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		if p.accept(TokKeyword, "PRIMARY") {
			if _, err := p.expect(TokKeyword, "KEY"); err != nil {
				return nil, err
			}
			st.PrimaryKey = col.Name
		}
		st.Cols = append(st.Cols, col)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) dropTable() (Statement, error) {
	p.next() // DROP
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name.Text}, nil
}

func (p *parser) insert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name.Text}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) declare() (Statement, error) {
	p.next() // DECLARE
	v, err := p.expect(TokVariable, "")
	if err != nil {
		return nil, err
	}
	// Optional type annotation, e.g. "varbinary(max)" or VARCHAR(64) — the
	// engine binds every DECLAREd variable as a string.
	if p.at(TokIdent, "") || p.at(TokKeyword, "VARCHAR") {
		p.next()
		if p.accept(TokSymbol, "(") {
			p.next() // max | number
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(TokSymbol, "="); err != nil {
		return nil, err
	}
	val, err := p.expect(TokString, "")
	if err != nil {
		return nil, fmt.Errorf("sql: DECLARE supports string values only (model names): %w", err)
	}
	return &DeclareStmt{Name: v.Text, Value: val.Text}, nil
}

// expression parses with precedence: OR < AND < NOT < comparison < add < mul.
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryE{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryE{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotE{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			return &BinaryE{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) additive() (Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokSymbol, "+"):
			r, err := p.multiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryE{Op: "+", L: l, R: r}
		case p.accept(TokSymbol, "-"):
			r, err := p.multiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryE{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) multiplicative() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokSymbol, "*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinaryE{Op: "*", L: l, R: r}
		case p.accept(TokSymbol, "/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinaryE{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &BinaryE{Op: "-", L: &NumLit{I: 0, IsInt: true}, R: e}, nil
	}
	return p.primary()
}

var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		if !strings.ContainsAny(t.Text, ".eE") {
			i, err := strconv.ParseInt(t.Text, 10, 64)
			if err == nil {
				return &NumLit{I: i, IsInt: true}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &NumLit{F: f}, nil
	case t.Kind == TokString:
		p.next()
		return &StrLit{S: t.Text}, nil
	case t.Kind == TokVariable:
		p.next()
		return &VarRef{Name: t.Text}, nil
	case t.Kind == TokKeyword && (t.Text == "TRUE" || t.Text == "FALSE"):
		p.next()
		return &BoolLitE{B: t.Text == "TRUE"}, nil
	case t.Kind == TokKeyword && t.Text == "CASE":
		return p.caseExpr()
	case t.Kind == TokKeyword && aggFuncs[t.Text]:
		p.next()
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		f := &FuncE{Name: t.Text}
		if p.accept(TokSymbol, "*") {
			f.Star = true
		} else {
			arg, err := p.expression()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, arg)
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return f, nil
	case t.Kind == TokIdent:
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if i := strings.IndexByte(name, '.'); i >= 0 {
			return &ColRef{Table: name[:i], Name: name[i+1:]}, nil
		}
		return &ColRef{Name: name}, nil
	case p.accept(TokSymbol, "("):
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("expected expression, found %q", t.Text)
	}
}

func (p *parser) caseExpr() (Expr, error) {
	p.next() // CASE
	c := &CaseE{}
	for p.accept(TokKeyword, "WHEN") {
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.expression()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, struct{ Cond, Then Expr }{cond, then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE needs at least one WHEN")
	}
	if p.accept(TokKeyword, "ELSE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

// qualifiedName parses ident[.ident] into "a.b" or "a".
func (p *parser) qualifiedName() (string, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return "", err
	}
	name := t.Text
	if p.accept(TokSymbol, ".") {
		t2, err := p.expect(TokIdent, "")
		if err != nil {
			return "", err
		}
		name = name + "." + t2.Text
	}
	return name, nil
}
