package pgwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"raven"
	"raven/internal/server/reqopt"
	"raven/internal/server/stmtreg"
	"raven/internal/sql"
	"raven/internal/types"
)

// conn is one backend: a single pg session over one TCP connection.
// All protocol state (statements, portals, error recovery) is owned by
// the connection goroutine; only the cancel hook and the stats gauges
// are touched cross-goroutine.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf writeBuf

	pid    uint32
	secret uint32
	owner  string // stmtreg owner key: statements die with the conn

	// ctx is the connection's lifetime context; closing the conn cancels
	// every query started under it.
	ctx       context.Context
	cancelCtx context.CancelFunc
	closeOnce sync.Once

	// sessOpts is the ctx layer of the reqopt resolution order for this
	// session: tenant from the startup database/user params, knobs from
	// the startup options string.
	sessOpts reqopt.Options

	// stmts/portals are the extended-protocol namespaces. SELECT-ish
	// statements live in the shared registry (regID); side-effect
	// scripts keep their rewritten SQL locally (execSQL) since the
	// engine prepare surface must not mutate.
	stmts   map[string]*preparedStmt
	portals map[string]*portal
	errored bool // extended-protocol error: skip until Sync

	nStmts   atomic.Int32
	nPortals atomic.Int32
	active   atomic.Int32 // queries in flight (0 or 1)

	cancelMu  sync.Mutex
	curCancel context.CancelFunc
}

// maxSessionStmts/maxSessionPortals bound the per-connection named
// namespaces. Side-effect statements bypass the capped shared registry
// (their SQL lives locally) and portals are purely local, so without
// these an unauthenticated client could grow server memory without
// bound by Parsing/Binding under ever-new names.
const (
	maxSessionStmts   = 4096
	maxSessionPortals = 4096
)

// preparedStmt is one named (or unnamed) statement in this session.
type preparedStmt struct {
	regID   string // shared-registry id; "" for side-effect scripts
	execSQL string // side-effect script text; "" for SELECTs
	nParams int
	sql     string // rewritten text (for tags and errors)
}

// portal is one bound statement ready to Execute.
type portal struct {
	ps     *preparedStmt
	params []raven.Param
}

func (s *Server) serveConn(nc net.Conn) {
	// Defense in depth: a handler bug on one malformed frame must cost
	// that connection, not the process. teardown is deferred below this,
	// so it still runs (LIFO) before the panic is swallowed here.
	defer func() {
		if r := recover(); r != nil {
			nc.Close()
		}
	}()
	c := &conn{
		srv:     s,
		nc:      nc,
		r:       bufio.NewReaderSize(nc, 8<<10),
		w:       bufio.NewWriterSize(nc, 16<<10),
		stmts:   make(map[string]*preparedStmt),
		portals: make(map[string]*portal),
	}
	c.ctx, c.cancelCtx = context.WithCancel(context.Background())
	defer c.teardown()
	if !c.startup() {
		return
	}
	c.mainLoop()
}

func (c *conn) teardown() {
	c.close()
	if c.pid != 0 {
		c.srv.unregister(c)
	}
	if c.owner != "" {
		c.srv.reg.RemoveOwner(c.owner)
	}
}

// close severs the connection: cancels the lifetime context (stopping
// any in-flight query) and closes the socket. Idempotent and safe from
// any goroutine (Shutdown calls it).
func (c *conn) close() {
	c.closeOnce.Do(func() {
		c.cancelCtx()
		c.nc.Close()
	})
}

func (c *conn) queryActive() bool { return c.active.Load() > 0 }

func (c *conn) objectCounts() (portals, stmts int) {
	return int(c.nPortals.Load()), int(c.nStmts.Load())
}

// cancelCurrent fires the in-flight query's cancel func (CancelRequest
// delivery). Returns whether a query was actually running.
func (c *conn) cancelCurrent() bool {
	c.cancelMu.Lock()
	cancel := c.curCancel
	c.cancelMu.Unlock()
	if cancel != nil {
		cancel()
		return true
	}
	return false
}

func (c *conn) setCancel(f context.CancelFunc) {
	c.cancelMu.Lock()
	c.curCancel = f
	c.cancelMu.Unlock()
}

// ---- startup ----

// startup runs the negotiation loop (SSL/GSS refusals, CancelRequest
// dispatch, the v3 StartupMessage), maps the startup params onto the
// session's request-option layer, and completes trust auth. Returns
// false when the connection should be dropped without a main loop.
func (c *conn) startup() bool {
	for {
		body, err := readStartup(c.r)
		if err != nil {
			return false
		}
		m := &msgReader{b: body}
		code, err := m.uint32()
		if err != nil {
			return false
		}
		switch code {
		case sslRequest, gssEncRequest:
			// No TLS/GSS; 'N' tells the client to continue in the clear.
			if _, err := c.nc.Write([]byte{'N'}); err != nil {
				return false
			}
			continue
		case cancelRequest:
			pid, err1 := m.uint32()
			secret, err2 := m.uint32()
			if err1 == nil && err2 == nil {
				c.srv.cancel(pid, secret)
			}
			return false // cancel connections carry nothing else
		case protoVersion3:
			params, err := parseStartupParams(m.b)
			if err != nil {
				return false
			}
			return c.finishStartup(params)
		default:
			c.startupError(reqopt.SQLStateNotSupported, fmt.Sprintf("unsupported protocol version %d", code))
			return false
		}
	}
}

func (c *conn) finishStartup(params map[string]string) bool {
	if c.srv.draining.Load() {
		c.startupError(reqopt.SQLStateAdminShutdown, "server is draining")
		return false
	}
	sess, err := sessionOptions(params, c.srv.opts.DefaultTenant)
	if err != nil {
		c.startupError(reqopt.SQLStateSyntaxError, err.Error())
		return false
	}
	c.sessOpts = sess
	if !c.srv.register(c) {
		c.startupError(reqopt.SQLStateAdminShutdown, "server is shutting down")
		return false
	}
	c.owner = fmt.Sprintf("pg:%d", c.pid)

	// Trust auth: AuthenticationOk straight away, then the parameter
	// statuses a driver expects before it will talk, the cancellation
	// identity, and ReadyForQuery.
	c.buf.start(msgAuth)
	c.buf.int32(0)
	c.buf.finish(c.w)
	for _, kv := range [][2]string{
		{"server_version", "13.0 (raven)"},
		{"server_encoding", "UTF8"},
		{"client_encoding", "UTF8"},
		{"DateStyle", "ISO, MDY"},
		{"integer_datetimes", "on"},
		{"standard_conforming_strings", "on"},
		{"is_superuser", "off"},
		{"session_authorization", params["user"]},
		{"application_name", params["application_name"]},
	} {
		c.buf.start(msgParameterStatus)
		c.buf.cstring(kv[0])
		c.buf.cstring(kv[1])
		c.buf.finish(c.w)
	}
	c.buf.start(msgBackendKeyData)
	c.buf.uint32(c.pid)
	c.buf.uint32(c.secret)
	c.buf.finish(c.w)
	return c.readyForQuery()
}

// sessionOptions maps pg startup parameters onto the session's reqopt
// layer. The tenant mapping: the database the client asked for names
// the tenant, except the conventional default database names ("raven",
// "postgres", "") which fall back to the user — so `psql -d tenantB`
// bills tenantB, while a plain `psql -U alice` (psql defaults the
// database to the user name) bills alice. The startup "options" string
// carries the remaining knobs as -c raven.* pairs.
func sessionOptions(params map[string]string, defaultTenant string) (reqopt.Options, error) {
	kv, err := parseOptionsString(params["options"])
	if err != nil {
		return reqopt.Options{}, err
	}
	o, err := reqopt.FromSessionParams(kv)
	if err != nil {
		return reqopt.Options{}, err
	}
	tenant := params["database"]
	if tenant == "" || tenant == "raven" || tenant == "postgres" {
		tenant = params["user"]
	}
	if tenant == "" {
		tenant = defaultTenant
	}
	o.Tenant = tenant
	return o, nil
}

// parseOptionsString splits a startup options value — a command-line
// fragment like "-c raven.priority=5 -c raven.dop=2" (PGOPTIONS) —
// into key=value pairs. --key=value is accepted too.
func parseOptionsString(s string) (map[string]string, error) {
	kv := make(map[string]string)
	fields := strings.Fields(s)
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		var pair string
		switch {
		case f == "-c":
			i++
			if i >= len(fields) {
				return nil, errors.New("startup options: -c without key=value")
			}
			pair = fields[i]
		case strings.HasPrefix(f, "-c"):
			pair = f[2:]
		case strings.HasPrefix(f, "--"):
			pair = f[2:]
		default:
			return nil, fmt.Errorf("startup options: unsupported argument %q", f)
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("startup options: want key=value, got %q", pair)
		}
		kv[k] = v
	}
	return kv, nil
}

// startupError sends an ErrorResponse before auth completed (no
// ReadyForQuery follows — the connection dies).
func (c *conn) startupError(code, msg string) {
	c.writeErrorMsg(code, msg)
	c.w.Flush()
}

// ---- main loop ----

func (c *conn) mainLoop() {
	for {
		typ, payload, err := readMessage(c.r)
		if err != nil {
			return
		}
		// Extended-protocol error recovery: after an error, everything up
		// to the next Sync is skipped (the client's pipelined messages
		// must not run against a broken sequence).
		if c.errored && typ != msgSync && typ != msgTerminate {
			continue
		}
		m := &msgReader{b: payload}
		ok := true
		switch typ {
		case msgQuery:
			c.srv.stats.msgQuery.Add(1)
			s, err := m.cstring()
			if err != nil {
				ok = c.protoError(err)
			} else {
				ok = c.handleSimple(s)
			}
		case msgParse:
			c.srv.stats.msgParse.Add(1)
			ok = c.handleParse(m)
		case msgBind:
			c.srv.stats.msgBind.Add(1)
			ok = c.handleBind(m)
		case msgDescribe:
			c.srv.stats.msgDescribe.Add(1)
			ok = c.handleDescribe(m)
		case msgExecute:
			c.srv.stats.msgExecute.Add(1)
			ok = c.handleExecute(m)
		case msgClose:
			c.srv.stats.msgClose.Add(1)
			ok = c.handleCloseMsg(m)
		case msgSync:
			c.srv.stats.msgSync.Add(1)
			c.errored = false
			ok = c.readyForQuery()
		case msgFlush:
			c.srv.stats.msgOther.Add(1)
			ok = c.w.Flush() == nil
		case msgTerminate:
			c.srv.stats.msgOther.Add(1)
			return
		default:
			c.srv.stats.msgOther.Add(1)
			ok = c.extError(reqopt.SQLStateProtocolViolation,
				fmt.Sprintf("unsupported frontend message %q", typ))
		}
		if !ok {
			return
		}
	}
}

// protoError reports a malformed frame and poisons the sequence.
func (c *conn) protoError(err error) bool {
	return c.extError(reqopt.SQLStateProtocolViolation, err.Error())
}

// extError sends an ErrorResponse inside the extended protocol and
// arms skip-until-Sync.
func (c *conn) extError(code, msg string) bool {
	c.errored = true
	if !c.sendError(code, msg) {
		return false
	}
	return c.w.Flush() == nil
}

// queryError maps an engine error through the shared table and sends it
// (extended-protocol variant arms skip-until-Sync via the caller).
func (c *conn) engineError(err error) bool {
	return c.sendError(reqopt.SQLState(err), err.Error())
}

func (c *conn) sendError(code, msg string) bool {
	c.srv.stats.errorsSent.Add(1)
	return c.writeErrorMsg(code, msg)
}

func (c *conn) writeErrorMsg(code, msg string) bool {
	c.buf.start(msgErrorResponse)
	c.buf.byte('S')
	c.buf.cstring("ERROR")
	c.buf.byte('V')
	c.buf.cstring("ERROR")
	c.buf.byte('C')
	c.buf.cstring(code)
	c.buf.byte('M')
	c.buf.cstring(msg)
	c.buf.byte(0)
	return c.buf.finish(c.w) == nil
}

func (c *conn) readyForQuery() bool {
	c.buf.start(msgReadyForQuery)
	c.buf.byte('I') // no transactions: always idle
	if c.buf.finish(c.w) != nil {
		return false
	}
	return c.w.Flush() == nil
}

// resolved builds the session's effective options: ctx layer (startup
// params) > per-statement layer (stmt, may be zero) > server default.
func (c *conn) resolved(stmt reqopt.Options) reqopt.Options {
	return reqopt.Resolve(
		c.sessOpts,
		stmt,
		reqopt.Options{Timeout: c.srv.opts.DefaultTimeout},
	).Clamp()
}

// queryCtx derives one query's context — session lifetime bounded by
// the resolved timeout — and registers its cancel hook for
// CancelRequest delivery. Callers must defer done().
func (c *conn) queryCtx(ro reqopt.Options) (ctx context.Context, done func()) {
	qctx, cancel := ro.WithTimeout(c.ctx)
	c.setCancel(cancel)
	c.active.Add(1)
	return qctx, func() {
		c.setCancel(nil)
		cancel()
		c.active.Add(-1)
	}
}

// ---- simple query ----

// shimTag recognizes the session-management statements tools send that
// the engine has no use for (SET, transaction control). They are
// acknowledged as no-ops with their conventional tags so psql scripts
// and BI-tool session setup run; anything else returns "".
func shimTag(script string) string {
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(script), ";"))
	up := strings.ToUpper(s)
	switch {
	case up == "BEGIN" || strings.HasPrefix(up, "BEGIN "):
		return "BEGIN"
	case up == "COMMIT" || up == "END":
		return "COMMIT"
	case up == "ROLLBACK":
		return "ROLLBACK"
	case strings.HasPrefix(up, "SET "):
		return "SET"
	case strings.HasPrefix(up, "RESET "):
		return "RESET"
	}
	return ""
}

func (c *conn) handleSimple(script string) bool {
	if strings.TrimSpace(script) == "" {
		c.buf.start(msgEmptyQueryResp)
		if c.buf.finish(c.w) != nil {
			return false
		}
		return c.readyForQuery()
	}
	if tag := shimTag(script); tag != "" {
		return c.commandComplete(tag) && c.readyForQuery()
	}
	if c.srv.draining.Load() {
		c.engineError(raven.ErrDraining)
		return c.readyForQuery()
	}
	ro := c.resolved(reqopt.Options{})
	ctx, done := c.queryCtx(ro)
	defer done()
	c.srv.stats.queries.Add(1)
	if sql.ClassifyScript(script) == sql.ScriptSideEffectsOnly {
		if err := c.srv.db.ExecContext(ro.Context(ctx), script); err != nil {
			c.engineError(err)
			return c.readyForQuery()
		}
		return c.commandComplete(commandTag(script)) && c.readyForQuery()
	}
	opts := raven.DefaultQueryOptions()
	ro.Apply(&opts)
	rows, err := c.srv.db.QueryContextWithOptions(ro.Context(ctx), script, opts)
	if err != nil {
		c.engineError(err)
		return c.readyForQuery()
	}
	n, ok := c.streamRows(rows, true)
	if !ok {
		// Transport died mid-stream; nothing more to say.
		return false
	}
	if n >= 0 {
		if !c.commandComplete("SELECT " + strconv.Itoa(n)) {
			return false
		}
	}
	return c.readyForQuery()
}

// commandTag derives the CommandComplete tag for a side-effect script
// from its last statement (one tag per simple-query script — the
// engine runs the script atomically enough that per-statement tags
// would claim structure it doesn't have). The script already executed,
// so the parse cannot fail; any oddity falls back to a generic tag.
func commandTag(script string) string {
	stmts, err := sql.ParseScript(script)
	if err != nil || len(stmts) == 0 {
		return "OK"
	}
	switch x := stmts[len(stmts)-1].(type) {
	case *sql.CreateTableStmt:
		return "CREATE TABLE"
	case *sql.DropTableStmt:
		return "DROP TABLE"
	case *sql.InsertStmt:
		return fmt.Sprintf("INSERT 0 %d", len(x.Rows))
	case *sql.DeclareStmt:
		return "DECLARE"
	default:
		return "OK"
	}
}

func (c *conn) commandComplete(tag string) bool {
	c.buf.start(msgCommandComplete)
	c.buf.cstring(tag)
	return c.buf.finish(c.w) == nil
}

// streamRows sends the result: RowDescription (simple query only —
// extended-protocol clients got theirs from Describe), DataRows, and
// returns the row count. A query error mid-stream is reported as an
// ErrorResponse (n = -1: the caller must skip CommandComplete); a
// transport error returns ok = false.
func (c *conn) streamRows(rows *raven.Rows, withDescription bool) (n int, ok bool) {
	defer rows.Close()
	sch := rows.Schema()
	if withDescription {
		if !c.writeRowDescription(sch) {
			return 0, false
		}
	}
	vals := make([]any, sch.Len())
	ptrs := make([]any, sch.Len())
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return -1, c.engineError(err)
		}
		if !c.writeDataRow(vals) {
			return 0, false
		}
		n++
	}
	if err := rows.Err(); err != nil {
		// Status already on the wire (rows may have streamed); the error
		// travels as a trailer, exactly like the NDJSON error line.
		return -1, c.engineError(err)
	}
	return n, true
}

func (c *conn) writeRowDescription(sch *types.Schema) bool {
	c.buf.start(msgRowDescription)
	c.buf.int16(sch.Len())
	for _, col := range sch.Columns {
		oid, typlen := oidFor(col.Type)
		c.buf.cstring(col.Name)
		c.buf.int32(0) // table OID
		c.buf.int16(0) // column attr number
		c.buf.uint32(oid)
		c.buf.int16(int(typlen))
		c.buf.int32(-1) // typmod
		c.buf.int16(0)  // text format
	}
	return c.buf.finish(c.w) == nil
}

func (c *conn) writeDataRow(vals []any) bool {
	c.buf.start(msgDataRow)
	c.buf.int16(len(vals))
	for _, v := range vals {
		if v == nil {
			c.buf.int32(-1)
			continue
		}
		var s string
		switch x := v.(type) {
		case int64:
			s = strconv.FormatInt(x, 10)
		case float64:
			s = strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			if x {
				s = "t"
			} else {
				s = "f"
			}
		case string:
			s = x
		default:
			s = fmt.Sprintf("%v", x)
		}
		c.buf.int32(len(s))
		c.buf.bytes([]byte(s))
	}
	return c.buf.finish(c.w) == nil
}

// ---- extended protocol ----

// rewritePlaceholders turns pg's positional $1..$n placeholders into
// the engine's named @p1..@pn parameters. The scan skips everything the
// pg lexer would not treat as a parameter: single-quoted literals,
// double-quoted identifiers, line (--) and block (/* */, nesting)
// comments, and dollar-quoted strings. A placeholder glued to an
// identifier ("$1abc") is rejected like postgres rejects it. Returns
// the rewritten text and the parameter count (the highest $n
// referenced — pg semantics, where $2 alone implies two parameters).
func rewritePlaceholders(q string) (string, int, error) {
	var sb strings.Builder
	sb.Grow(len(q) + 8)
	maxN := 0
	for i := 0; i < len(q); {
		ch := q[i]
		switch {
		case ch == '\'' || ch == '"':
			// Quoted literal/identifier: copy verbatim through the closing
			// quote (doubled quotes stay inside).
			j := i + 1
			for j < len(q) {
				if q[j] == ch {
					if j+1 < len(q) && q[j+1] == ch {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			sb.WriteString(q[i:j])
			i = j
		case ch == '-' && i+1 < len(q) && q[i+1] == '-':
			// Line comment: verbatim through end of line.
			j := i + 2
			for j < len(q) && q[j] != '\n' {
				j++
			}
			sb.WriteString(q[i:j])
			i = j
		case ch == '/' && i+1 < len(q) && q[i+1] == '*':
			// Block comment, nesting per the SQL standard.
			depth := 1
			j := i + 2
			for j < len(q) && depth > 0 {
				switch {
				case j+1 < len(q) && q[j] == '/' && q[j+1] == '*':
					depth++
					j += 2
				case j+1 < len(q) && q[j] == '*' && q[j+1] == '/':
					depth--
					j += 2
				default:
					j++
				}
			}
			sb.WriteString(q[i:j])
			i = j
		case ch == '$' && i+1 < len(q) && isDigit(q[i+1]):
			j := i + 1
			for j < len(q) && isDigit(q[j]) {
				j++
			}
			if j < len(q) && isIdentStart(q[j]) {
				return "", 0, fmt.Errorf("bad parameter placeholder %q", q[i:j+1])
			}
			n, err := strconv.Atoi(q[i+1 : j])
			if err != nil || n < 1 {
				return "", 0, fmt.Errorf("bad parameter placeholder %q", q[i:j])
			}
			if n > maxN {
				maxN = n
			}
			sb.WriteString("@p")
			sb.WriteString(q[i+1 : j])
			i = j
		case ch == '$':
			if end, ok := dollarQuoteEnd(q, i); ok {
				sb.WriteString(q[i:end])
				i = end
				continue
			}
			sb.WriteByte(ch)
			i++
		default:
			sb.WriteByte(ch)
			i++
		}
	}
	return sb.String(), maxN, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isIdentStart matches the pg lexer's ident_start class (letters,
// underscore, any high-bit byte).
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

// dollarQuoteEnd reports whether q[i] opens a dollar-quoted string
// ($$..$$ or $tag$..$tag$) and returns the index just past its closing
// delimiter. An unterminated opener swallows the rest of the text —
// the engine parser reports the real syntax error.
func dollarQuoteEnd(q string, i int) (int, bool) {
	j := i + 1
	for j < len(q) && (isIdentStart(q[j]) || isDigit(q[j])) {
		j++
	}
	if j >= len(q) || q[j] != '$' {
		return 0, false
	}
	tag := q[i : j+1]
	rest := strings.Index(q[j+1:], tag)
	if rest < 0 {
		return len(q), true
	}
	return j + 1 + rest + len(tag), true
}

func (c *conn) handleParse(m *msgReader) bool {
	name, err1 := m.cstring()
	q, err2 := m.cstring()
	nOids, err3 := m.int16()
	if err1 != nil || err2 != nil || err3 != nil || nOids < 0 {
		return c.protoError(errShortMessage)
	}
	for i := 0; i < nOids; i++ {
		// Declared parameter OIDs are accepted and ignored: every value
		// arrives in text format and binds through the engine's inference
		// typing, exactly like @var params over HTTP.
		if _, err := m.uint32(); err != nil {
			return c.protoError(err)
		}
	}
	if _, exists := c.stmts[name]; !exists && len(c.stmts) >= maxSessionStmts {
		return c.extError(reqopt.SQLStateTooManyConns,
			fmt.Sprintf("too many prepared statements on this connection (limit %d); close some", maxSessionStmts))
	}
	if c.srv.draining.Load() {
		c.errored = true
		c.engineError(raven.ErrDraining)
		return c.w.Flush() == nil
	}
	rw, nParams, err := rewritePlaceholders(q)
	if err != nil {
		return c.extError(reqopt.SQLStateSyntaxError, err.Error())
	}
	ps := &preparedStmt{nParams: nParams, sql: rw}
	if tag := shimTag(q); tag != "" {
		// Session-management shims parse to a no-op statement so drivers
		// that prepare their SETs still work.
		ps = &preparedStmt{sql: q, execSQL: "\x00shim:" + tag}
	} else if sql.ClassifyScript(rw) != sql.ScriptSideEffectsOnly {
		if c.srv.reg.Full() {
			c.errored = true
			c.engineError(reqopt.ErrStmtLimit)
			return c.w.Flush() == nil
		}
		ro := c.resolved(reqopt.Options{})
		ctx, done := c.queryCtx(ro)
		opts := raven.DefaultQueryOptions()
		ro.Apply(&opts)
		st, err := c.srv.db.PrepareContextWithOptions(ro.Context(ctx), rw, opts)
		done()
		if err != nil {
			c.errored = true
			c.engineError(err)
			return c.w.Flush() == nil
		}
		id, err := c.srv.reg.Register(c.owner, &stmtreg.Entry{
			Stmt: st,
			Opts: reqopt.Options{Tenant: ro.Tenant, Priority: ro.Priority},
		})
		if err != nil {
			c.errored = true
			c.engineError(err)
			return c.w.Flush() == nil
		}
		ps.regID = id
	} else {
		if nParams > 0 {
			return c.extError(reqopt.SQLStateNotSupported,
				"parameters are only supported in SELECT/PREDICT statements (INSERT/DDL take literals)")
		}
		ps.execSQL = rw
	}
	c.dropStmt(name)
	c.stmts[name] = ps
	c.nStmts.Add(1)
	c.buf.start(msgParseComplete)
	return c.buf.finish(c.w) == nil
}

// dropStmt removes a named statement (re-Parse overwrites; Close
// removes), returning its registry entry too.
func (c *conn) dropStmt(name string) {
	if old, ok := c.stmts[name]; ok {
		if old.regID != "" {
			c.srv.reg.Remove(old.regID)
		}
		delete(c.stmts, name)
		c.nStmts.Add(-1)
	}
}

func (c *conn) dropPortal(name string) {
	if _, ok := c.portals[name]; ok {
		delete(c.portals, name)
		c.nPortals.Add(-1)
	}
}

func (c *conn) handleBind(m *msgReader) bool {
	portalName, err1 := m.cstring()
	stmtName, err2 := m.cstring()
	nFmt, err3 := m.int16()
	if err1 != nil || err2 != nil || err3 != nil || nFmt < 0 {
		return c.protoError(errShortMessage)
	}
	formats := make([]int, nFmt)
	for i := range formats {
		f, err := m.int16()
		if err != nil {
			return c.protoError(err)
		}
		formats[i] = f
	}
	nVals, err := m.int16()
	if err != nil || nVals < 0 {
		return c.protoError(errShortMessage)
	}
	vals := make([][]byte, nVals)
	nulls := make([]bool, nVals)
	for i := range vals {
		ln, err := m.int32()
		if err != nil {
			return c.protoError(err)
		}
		if ln == -1 {
			nulls[i] = true
			continue
		}
		v, err := m.bytes(ln)
		if err != nil {
			return c.protoError(err)
		}
		vals[i] = v
	}
	nResFmt, err := m.int16()
	if err != nil || nResFmt < 0 {
		return c.protoError(errShortMessage)
	}
	for i := 0; i < nResFmt; i++ {
		f, err := m.int16()
		if err != nil {
			return c.protoError(err)
		}
		if f != 0 {
			return c.extError(reqopt.SQLStateNotSupported, "binary result format is not supported (text only)")
		}
	}
	for _, f := range formats {
		if f != 0 {
			return c.extError(reqopt.SQLStateNotSupported, "binary parameter format is not supported (text only)")
		}
	}
	ps, ok := c.stmts[stmtName]
	if !ok {
		return c.extError(reqopt.SQLStateInvalidStmtName,
			fmt.Sprintf("prepared statement %q does not exist", stmtName))
	}
	if _, exists := c.portals[portalName]; !exists && len(c.portals) >= maxSessionPortals {
		return c.extError(reqopt.SQLStateTooManyConns,
			fmt.Sprintf("too many portals on this connection (limit %d); close some", maxSessionPortals))
	}
	if nVals != ps.nParams {
		return c.extError(reqopt.SQLStateProtocolViolation,
			fmt.Sprintf("bind message supplies %d parameters, but prepared statement %q requires %d",
				nVals, stmtName, ps.nParams))
	}
	params := make([]raven.Param, 0, nVals)
	for i, v := range vals {
		if nulls[i] {
			return c.extError(reqopt.SQLStateNotSupported, "NULL parameters are not supported")
		}
		params = append(params, raven.P("p"+strconv.Itoa(i+1), string(v)))
	}
	c.dropPortal(portalName)
	c.portals[portalName] = &portal{ps: ps, params: params}
	c.nPortals.Add(1)
	c.buf.start(msgBindComplete)
	return c.buf.finish(c.w) == nil
}

func (c *conn) handleDescribe(m *msgReader) bool {
	kind, err1 := m.byte()
	name, err2 := m.cstring()
	if err1 != nil || err2 != nil {
		return c.protoError(errShortMessage)
	}
	switch kind {
	case 'S':
		ps, ok := c.stmts[name]
		if !ok {
			return c.extError(reqopt.SQLStateInvalidStmtName,
				fmt.Sprintf("prepared statement %q does not exist", name))
		}
		c.buf.start(msgParamDescription)
		c.buf.int16(ps.nParams)
		for i := 0; i < ps.nParams; i++ {
			c.buf.uint32(oidText)
		}
		if c.buf.finish(c.w) != nil {
			return false
		}
		return c.describeResult(ps)
	case 'P':
		p, ok := c.portals[name]
		if !ok {
			return c.extError(reqopt.SQLStateInvalidPortal,
				fmt.Sprintf("portal %q does not exist", name))
		}
		return c.describeResult(p.ps)
	default:
		return c.extError(reqopt.SQLStateProtocolViolation,
			fmt.Sprintf("bad Describe kind %q", kind))
	}
}

// describeResult answers RowDescription (SELECTs, via the statement's
// lowered-but-unopened schema) or NoData (side-effect statements).
func (c *conn) describeResult(ps *preparedStmt) bool {
	if ps.regID == "" {
		c.buf.start(msgNoData)
		return c.buf.finish(c.w) == nil
	}
	e, err := c.srv.reg.Get(ps.regID)
	if err != nil {
		return c.extError(reqopt.SQLState(err), err.Error())
	}
	sch, err := e.Stmt.ResultSchema(c.ctx)
	if err != nil {
		c.errored = true
		c.engineError(err)
		return c.w.Flush() == nil
	}
	return c.writeRowDescription(sch)
}

func (c *conn) handleExecute(m *msgReader) bool {
	portalName, err1 := m.cstring()
	_, err2 := m.int32() // row limit: the whole result always streams
	if err1 != nil || err2 != nil {
		return c.protoError(errShortMessage)
	}
	p, ok := c.portals[portalName]
	if !ok {
		return c.extError(reqopt.SQLStateInvalidPortal,
			fmt.Sprintf("portal %q does not exist", portalName))
	}
	if strings.HasPrefix(p.ps.execSQL, "\x00shim:") {
		return c.commandComplete(strings.TrimPrefix(p.ps.execSQL, "\x00shim:"))
	}
	if c.srv.draining.Load() {
		c.errored = true
		c.engineError(raven.ErrDraining)
		return c.w.Flush() == nil
	}
	c.srv.stats.queries.Add(1)
	if p.ps.execSQL != "" {
		ro := c.resolved(reqopt.Options{})
		ctx, done := c.queryCtx(ro)
		err := c.srv.db.ExecContext(ro.Context(ctx), p.ps.execSQL)
		done()
		if err != nil {
			c.errored = true
			c.engineError(err)
			return c.w.Flush() == nil
		}
		return c.commandComplete(commandTag(p.ps.execSQL))
	}
	e, err := c.srv.reg.Get(p.ps.regID)
	if err != nil {
		return c.extError(reqopt.SQLState(err), err.Error())
	}
	// Per-statement layer under the session layer: the registered
	// tenant/priority hold unless the session overrides them — the same
	// resolution the HTTP prepared path runs.
	ro := c.resolved(e.Opts)
	ctx, done := c.queryCtx(ro)
	defer done()
	rows, err := e.Stmt.QueryContext(ro.Context(ctx), p.params...)
	if err != nil {
		c.errored = true
		c.engineError(err)
		return c.w.Flush() == nil
	}
	n, ok := c.streamRows(rows, false)
	if !ok {
		return false
	}
	if n < 0 {
		c.errored = true
		return c.w.Flush() == nil
	}
	return c.commandComplete("SELECT " + strconv.Itoa(n))
}

func (c *conn) handleCloseMsg(m *msgReader) bool {
	kind, err1 := m.byte()
	name, err2 := m.cstring()
	if err1 != nil || err2 != nil {
		return c.protoError(errShortMessage)
	}
	switch kind {
	case 'S':
		c.dropStmt(name)
	case 'P':
		c.dropPortal(name)
	default:
		return c.extError(reqopt.SQLStateProtocolViolation,
			fmt.Sprintf("bad Close kind %q", kind))
	}
	// Closing a nonexistent object is not an error (pg semantics).
	c.buf.start(msgCloseComplete)
	return c.buf.finish(c.w) == nil
}
