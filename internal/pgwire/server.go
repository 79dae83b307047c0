package pgwire

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"raven"
	"raven/internal/server/stmtreg"
)

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http's contract so callers can treat both front ends alike.
var ErrServerClosed = errors.New("pgwire: server closed")

// Options tunes the pg front end.
type Options struct {
	// DefaultTimeout bounds queries whose session supplies no
	// raven.timeout_ms; 0 means unbounded. The server-default layer of
	// the reqopt resolution order.
	DefaultTimeout time.Duration
	// DefaultTenant overrides the tenant connections map to when both
	// startup parameters are empty (normally impossible — psql always
	// sends user — but raw clients can).
	DefaultTenant string
}

// Server speaks the Postgres v3 wire protocol over one raven.DB.
// Create with New, run with Serve, stop with Shutdown. It shares its
// prepared-statement registry with the HTTP front end, so both drain
// the same capacity budget and show up in the same stats.
type Server struct {
	db   *raven.DB
	reg  *stmtreg.Registry
	opts Options

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	byPID    map[uint32]*conn
	nextPID  uint32
	shutdown bool

	draining atomic.Bool

	stats serverStats
}

// serverStats are the pg front end's live counters (see Stats).
type serverStats struct {
	totalConns  atomic.Uint64
	queries     atomic.Uint64 // executions started (simple + Execute)
	errorsSent  atomic.Uint64
	cancels     atomic.Uint64 // CancelRequests that matched a backend
	msgQuery    atomic.Uint64
	msgParse    atomic.Uint64
	msgBind     atomic.Uint64
	msgDescribe atomic.Uint64
	msgExecute  atomic.Uint64
	msgSync     atomic.Uint64
	msgClose    atomic.Uint64
	msgOther    atomic.Uint64
}

// Stats is the pgwire section of GET /stats: connection gauges, portal
// counts and per-state frontend message counters.
type Stats struct {
	Connections      int               `json:"connections"`
	TotalConnections uint64            `json:"total_connections"`
	Portals          int               `json:"portals"`
	Statements       int               `json:"statements"`
	Queries          uint64            `json:"queries"`
	Errors           uint64            `json:"errors"`
	Cancels          uint64            `json:"cancels"`
	Messages         map[string]uint64 `json:"messages"`
}

// New builds a Server over db. reg may be shared with the HTTP front
// end (ravenserved does exactly that); nil gets a private registry.
func New(db *raven.DB, reg *stmtreg.Registry, opts Options) *Server {
	if reg == nil {
		reg = stmtreg.New(0)
	}
	return &Server{
		db:    db,
		reg:   reg,
		opts:  opts,
		conns: make(map[*conn]struct{}),
		byPID: make(map[uint32]*conn),
	}
}

// Stats snapshots the front end.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	open := len(s.conns)
	portals, stmts := 0, 0
	for c := range s.conns {
		p, st := c.objectCounts()
		portals += p
		stmts += st
	}
	s.mu.Unlock()
	return Stats{
		Connections:      open,
		TotalConnections: s.stats.totalConns.Load(),
		Portals:          portals,
		Statements:       stmts,
		Queries:          s.stats.queries.Load(),
		Errors:           s.stats.errorsSent.Load(),
		Cancels:          s.stats.cancels.Load(),
		Messages: map[string]uint64{
			"query":    s.stats.msgQuery.Load(),
			"parse":    s.stats.msgParse.Load(),
			"bind":     s.stats.msgBind.Load(),
			"describe": s.stats.msgDescribe.Load(),
			"execute":  s.stats.msgExecute.Load(),
			"sync":     s.stats.msgSync.Load(),
			"close":    s.stats.msgClose.Load(),
			"other":    s.stats.msgOther.Load(),
		},
	}
}

// Serve accepts pg connections on l until Shutdown; it returns
// ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.ln = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return ErrServerClosed
			}
			return err
		}
		go s.serveConn(nc)
	}
}

// Shutdown drains the pg front end: stop accepting connections, refuse
// new queries with SQLSTATE 57P01, wait for in-flight queries to finish
// (or ctx to expire), then close every connection. The engine-level
// drain (scheduler refusal, in-flight wait) is the caller's job —
// ravenserved drains the engine once through the HTTP server's
// Shutdown — so pg and HTTP cannot double-drain each other.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	s.shutdown = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Wait for in-flight queries to finish; new ones are already refused.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.activeQueries() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			goto force
		case <-tick.C:
		}
	}
force:
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	// Wait for connection goroutines to unwind so Shutdown's return means
	// no pgwire goroutine still touches the engine (leak checks rely on
	// it).
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (s *Server) activeQueries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		if c.queryActive() {
			n++
		}
	}
	return n
}

// register assigns the connection its BackendKeyData identity. c.pid
// and c.secret are written under s.mu BEFORE the conn is published into
// byPID, so Server.cancel (which reads them under the same lock) can
// never observe a registered conn with an unset identity.
func (s *Server) register(c *conn) bool {
	var sb [4]byte
	if _, err := rand.Read(sb[:]); err != nil {
		return false
	}
	secret := binary.BigEndian.Uint32(sb[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return false
	}
	s.nextPID++
	c.pid = s.nextPID
	c.secret = secret
	s.conns[c] = struct{}{}
	s.byPID[c.pid] = c
	s.stats.totalConns.Add(1)
	return true
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	delete(s.byPID, c.pid)
	s.mu.Unlock()
}

// cancel delivers a CancelRequest: find the backend by pid, check the
// secret, cancel its in-flight query. Unknown pids and wrong secrets
// are silently ignored, exactly like postgres (cancellation is
// best-effort and unacknowledged by design).
func (s *Server) cancel(pid, secret uint32) {
	s.mu.Lock()
	c := s.byPID[pid]
	match := c != nil && c.secret == secret // secret read under the lock that ordered its write
	s.mu.Unlock()
	if match && c.cancelCurrent() {
		s.stats.cancels.Add(1)
	}
}
