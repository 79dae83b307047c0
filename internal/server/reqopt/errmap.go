package reqopt

import (
	"context"
	"errors"
	"net/http"

	"raven"
)

// ErrStmtLimit is the shared statement-registry-full error (stmtreg
// returns it; it lives here so the error table below and the registry
// cannot drift apart without a compile error).
var ErrStmtLimit = errors.New("prepared-statement limit reached; close unused statements")

// ErrStmtNotFound is the shared unknown-statement error.
var ErrStmtNotFound = errors.New("unknown statement id")

// Class is one row of the front-end error table: how an engine error
// leaves the process on each protocol. Both front ends consult the same
// table, so ErrQueueFull/ErrTenantQuota/ErrDraining/parse errors cannot
// drift between HTTP statuses and SQLSTATEs.
type Class struct {
	// HTTPStatus is the status the HTTP/NDJSON front end answers with.
	HTTPStatus int
	// SQLState is the five-byte code the pgwire front end puts in
	// ErrorResponse.
	SQLState string
	// RetryAfter reports whether the condition is transient pressure the
	// client should retry (HTTP adds a Retry-After header). False for
	// permanent conditions — a tenant administratively shut off stays
	// shut off until reconfiguration, so hinting a retry would just
	// generate polling load.
	RetryAfter bool
}

// SQLSTATE codes used by the table (postgres errcodes.txt spellings).
const (
	SQLStateSyntaxError       = "42601" // parse/bind/compile failures
	SQLStateTooManyConns      = "53300" // admission shed: queue full, quota
	SQLStateQueryCanceled     = "57014" // timeout or client cancel
	SQLStateAdminShutdown     = "57P01" // draining
	SQLStateInvalidStmtName   = "26000" // unknown prepared statement
	SQLStateInvalidPortal     = "34000" // unknown portal
	SQLStateProtocolViolation = "08P01" // malformed frame, wrong arity
	SQLStateNotSupported      = "0A000" // unsupported protocol feature
)

// Classify maps an engine (or registry) error to its wire class. The
// admission outcomes get distinct codes — the wire contract the
// scheduler exists for; everything else is a client error: this query
// surface treats malformed/unbindable SQL as 400/42601 and reserves
// 5xx for transport failures.
func Classify(err error) Class {
	switch {
	case errors.Is(err, raven.ErrQueueFull):
		// Shed: retry with backoff.
		return Class{http.StatusTooManyRequests, SQLStateTooManyConns, true}
	case errors.Is(err, raven.ErrTenantQuota):
		// Administratively shut off: same codes, no retry invitation.
		return Class{http.StatusTooManyRequests, SQLStateTooManyConns, false}
	case errors.Is(err, ErrStmtLimit):
		// Registry full: the client can free statements itself, so no
		// Retry-After (waiting changes nothing).
		return Class{http.StatusTooManyRequests, SQLStateTooManyConns, false}
	case errors.Is(err, raven.ErrQueueTimeout),
		errors.Is(err, context.DeadlineExceeded):
		return Class{http.StatusGatewayTimeout, SQLStateQueryCanceled, false}
	case errors.Is(err, raven.ErrDraining):
		return Class{http.StatusServiceUnavailable, SQLStateAdminShutdown, true}
	case errors.Is(err, context.Canceled):
		// Client went away or cancelled; 499 is never seen over HTTP but
		// keeps logs honest, and pg clients see the canonical cancel code.
		return Class{499, SQLStateQueryCanceled, false}
	case errors.Is(err, ErrStmtNotFound):
		return Class{http.StatusNotFound, SQLStateInvalidStmtName, false}
	case errors.As(err, new(*http.MaxBytesError)):
		// A request body past the route's size limit (HTTP only).
		return Class{http.StatusRequestEntityTooLarge, SQLStateProtocolViolation, false}
	default:
		return Class{http.StatusBadRequest, SQLStateSyntaxError, false}
	}
}

// HTTPStatus is Classify(err).HTTPStatus.
func HTTPStatus(err error) int { return Classify(err).HTTPStatus }

// SQLState is Classify(err).SQLState.
func SQLState(err error) string { return Classify(err).SQLState }
