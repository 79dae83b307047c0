package sql

import "raven/internal/types"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query, possibly carrying WITH bindings.
type SelectStmt struct {
	CTEs     []CTE
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Where    Expr
	GroupBy  []string
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

func (*SelectStmt) stmt() {}

// CTE is one WITH binding: name AS (select).
type CTE struct {
	Name   string
	Select *SelectStmt
}

// SelectItem is one projection: expression with optional alias; a bare *
// is represented by Star=true.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// TableRef is anything that can appear in FROM.
type TableRef interface{ tableRef() }

// TableName references a stored table or CTE, with optional alias.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableRef() {}

// JoinRef is an inner equi-join of two table refs.
type JoinRef struct {
	Left, Right TableRef
	// On is the join condition (equality of two columns for hash joins).
	On Expr
}

func (*JoinRef) tableRef() {}

// SubqueryRef is a parenthesized SELECT in FROM.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

// PredictRef is the SQL Server PREDICT table function:
//
//	PREDICT(MODEL = @m | 'name', DATA = source AS d)
//	WITH (col type, ...) AS p
//
// It joins the source rows with the model's output columns.
type PredictRef struct {
	// ModelName is the literal model name; ModelVar the @variable (one of
	// the two is set).
	ModelName string
	ModelVar  string
	Data      TableRef
	DataAlias string
	// OutputCols declares the prediction columns added to the row.
	OutputCols []types.Column
	Alias      string
}

func (*PredictRef) tableRef() {}

// CreateTableStmt is CREATE TABLE name (col type [PRIMARY KEY], ...).
type CreateTableStmt struct {
	Name       string
	Cols       []types.Column
	PrimaryKey string
}

func (*CreateTableStmt) stmt() {}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// InsertStmt is INSERT INTO name VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// DeclareStmt binds a variable for the rest of its own script:
// DECLARE @name = 'value'. Nothing outlives the script, so the engine
// runs a DECLARE only before the SELECT that reads it (Exec refuses one).
type DeclareStmt struct {
	Name  string
	Value string
}

func (*DeclareStmt) stmt() {}

// Expr is the parser's expression tree; the binder lowers it into
// internal/expr. Keeping a parser-local tree decouples parsing from the
// execution representation.
type Expr interface{ expr() }

// ColRef is a possibly-qualified column reference.
type ColRef struct{ Table, Name string }

func (*ColRef) expr() {}

// NumLit is a numeric literal; IsInt distinguishes 3 from 3.0.
type NumLit struct {
	F     float64
	I     int64
	IsInt bool
}

func (*NumLit) expr() {}

// StrLit is a string literal.
type StrLit struct{ S string }

func (*StrLit) expr() {}

// BoolLitE is TRUE/FALSE.
type BoolLitE struct{ B bool }

func (*BoolLitE) expr() {}

// VarRef is an @variable occurrence in an expression.
type VarRef struct{ Name string }

func (*VarRef) expr() {}

// BinaryE is a binary operation; Op uses SQL spellings (=, <>, AND, ...).
type BinaryE struct {
	Op   string
	L, R Expr
}

func (*BinaryE) expr() {}

// NotE is NOT e.
type NotE struct{ E Expr }

func (*NotE) expr() {}

// CaseE is a searched CASE expression.
type CaseE struct {
	Whens []struct{ Cond, Then Expr }
	Else  Expr
}

func (*CaseE) expr() {}

// FuncE is an aggregate or scalar function call; Star marks COUNT(*).
type FuncE struct {
	Name string
	Args []Expr
	Star bool
}

func (*FuncE) expr() {}
