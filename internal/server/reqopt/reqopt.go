// Package reqopt is the single request-options surface shared by every
// wire front end (HTTP/NDJSON and pgwire). The per-request knobs —
// tenant, priority, DOP, timeout, no_cache — historically accreted as
// three parallel mechanisms (X-Raven-* headers, JSON body fields,
// context funcs); this package replaces them with one Options struct,
// one documented resolution order, and one clamp for untrusted wire
// input, so a second protocol cannot re-implement the knobs
// inconsistently.
//
// # Resolution order
//
// Every knob resolves through the same layer stack, first set value
// wins:
//
//	ctx layer        > per-request      > per-statement        > server default
//	(trusted proxy:  (body fields,     (the tag a prepared    (ravenserved
//	 X-Raven-*       pg session        statement was          flags)
//	 headers / pg    params)           registered under)
//	 startup params)
//
// A front end builds one Options value per layer it knows about and
// calls Resolve with the layers in that order. NoCache is a one-way
// flag: any layer can turn the cache off for a request, none can turn
// it back on (matching the engine's NoResultCache semantics).
//
// Untrusted wire values pass through Clamp before reaching the engine:
// priority is bounded to ±MaxWirePriority (the scheduler's aging guard
// closes one priority level per 100ms, so an unbounded client value
// could park ahead of everyone for hours) and the requested DOP to
// 8×GOMAXPROCS (goroutine fan-out is allocated per request).
package reqopt

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"raven"
)

// MaxWirePriority bounds wire-supplied priorities (see Clamp).
const MaxWirePriority = 100

// MaxWireDOP returns the per-request parallelism cap applied to wire
// clients, on top of any engine slot budget.
func MaxWireDOP() int { return 8 * runtime.GOMAXPROCS(0) }

// Options is one resolution layer of the shared per-request knobs.
// Zero fields mean "unset at this layer" — Resolve falls through to the
// next layer. Priority is a pointer because an explicit 0 is a real
// value (it demotes a statement registered at a higher priority), so
// presence must be distinguishable from absence.
type Options struct {
	// Tenant attributes the request's admission (quotas, per-tenant
	// stats). "" = unset.
	Tenant string
	// Priority orders waiting admissions (higher first). nil = unset.
	Priority *int
	// DOP is the requested degree of parallelism (worker slots).
	// 0 = unset (engine default).
	DOP int
	// Timeout bounds the whole request. 0 = unset.
	Timeout time.Duration
	// NoCache bypasses the result cache for this request: no lookup, no
	// population. One-way: once any layer sets it, it stays set.
	NoCache bool
}

// Int boxes an int for the Priority field.
func Int(v int) *int { return &v }

// Resolve merges layers in precedence order (earlier wins per field):
// pass them as ctx > per-request > per-statement > server default.
func Resolve(layers ...Options) Options {
	var out Options
	for _, l := range layers {
		if out.Tenant == "" {
			out.Tenant = l.Tenant
		}
		if out.Priority == nil {
			out.Priority = l.Priority
		}
		if out.DOP == 0 {
			out.DOP = l.DOP
		}
		if out.Timeout == 0 {
			out.Timeout = l.Timeout
		}
		out.NoCache = out.NoCache || l.NoCache
	}
	return out
}

// Clamp bounds the untrusted knobs: priority to ±MaxWirePriority, DOP
// to [0, MaxWireDOP]. Both front ends clamp after resolving, so the
// bound applies to whichever layer supplied the value.
func (o Options) Clamp() Options {
	if o.Priority != nil {
		p := *o.Priority
		if p > MaxWirePriority {
			p = MaxWirePriority
		}
		if p < -MaxWirePriority {
			p = -MaxWirePriority
		}
		o.Priority = &p
	}
	if o.DOP < 0 {
		o.DOP = 0
	}
	if cap := MaxWireDOP(); o.DOP > cap {
		o.DOP = cap
	}
	return o
}

// PriorityOr returns the resolved priority, or def when unset.
func (o Options) PriorityOr(def int) int {
	if o.Priority == nil {
		return def
	}
	return *o.Priority
}

// Apply writes the resolved knobs onto an engine QueryOptions (the
// option-carrying engine calls). NoCache ORs into NoResultCache.
func (o Options) Apply(qo *raven.QueryOptions) {
	qo.Tenant = o.Tenant
	qo.Priority = o.PriorityOr(0)
	if o.DOP > 0 {
		qo.Parallelism = o.DOP
	}
	qo.NoResultCache = qo.NoResultCache || o.NoCache
}

// Context tags ctx with the resolved admission identity (and, when set,
// the DOP and the result-cache bypass) — the carrier for engine calls
// that take no options (ExecContext, Stmt.QueryContext).
func (o Options) Context(ctx context.Context) context.Context {
	ctx = raven.ContextWithTenant(ctx, o.Tenant, o.PriorityOr(0))
	if o.DOP > 0 {
		ctx = raven.ContextWithParallelism(ctx, o.DOP)
	}
	if o.NoCache {
		ctx = raven.ContextWithoutResultCache(ctx)
	}
	return ctx
}

// WithTimeout derives the request execution context: ctx bounded by the
// resolved timeout when one is set.
func (o Options) WithTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return context.WithCancel(ctx)
}

// HTTP header names of the ctx layer (a trusted fronting proxy tagging
// clients that cannot be trusted to tag themselves). Tenant and
// Priority are the original PR 5 headers; the rest complete the
// unified surface so every knob is reachable from every layer.
const (
	HeaderTenant    = "X-Raven-Tenant"
	HeaderPriority  = "X-Raven-Priority"
	HeaderDOP       = "X-Raven-DOP"
	HeaderTimeoutMS = "X-Raven-Timeout-Ms"
	HeaderNoCache   = "X-Raven-No-Cache"
)

// Headers is the ctx layer's header list, in one place: FromHeaders
// parses exactly these, and CopyHeaders forwards exactly these.
var Headers = []string{HeaderTenant, HeaderPriority, HeaderDOP, HeaderTimeoutMS, HeaderNoCache}

// CopyHeaders sets on dst each of Headers that src carries: what a
// fronting proxy forwards to the server behind it.
func CopyHeaders(dst, src http.Header) {
	for _, h := range Headers {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// FromHeaders parses the X-Raven-* headers into the ctx layer. A
// malformed value is a client error, not silently a zero.
func FromHeaders(h http.Header) (Options, error) {
	var o Options
	for _, name := range Headers {
		v := h.Get(name)
		if v == "" {
			continue
		}
		switch name {
		case HeaderTenant:
			o.Tenant = v
		case HeaderPriority:
			p, err := strconv.Atoi(v)
			if err != nil {
				return Options{}, fmt.Errorf("bad %s %q: not an integer", name, v)
			}
			o.Priority = &p
		case HeaderDOP:
			d, err := strconv.Atoi(v)
			if err != nil || d < 0 {
				return Options{}, fmt.Errorf("bad %s %q: not a non-negative integer", name, v)
			}
			o.DOP = d
		case HeaderTimeoutMS:
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms < 0 {
				return Options{}, fmt.Errorf("bad %s %q: not a non-negative integer", name, v)
			}
			o.Timeout = time.Duration(ms) * time.Millisecond
		case HeaderNoCache:
			b, err := parseWireBool(v)
			if err != nil {
				return Options{}, fmt.Errorf("bad %s %q: want a boolean", name, v)
			}
			o.NoCache = b
		}
	}
	return o, nil
}

// Session parameter keys of the pgwire ctx layer: a client passes them
// through the startup "options" parameter as -c key=value pairs
// (psql: PGOPTIONS="-c raven.priority=5"). Tenant has no key — it maps
// from the startup database/user parameters.
const (
	ParamPriority  = "raven.priority"
	ParamDOP       = "raven.dop"
	ParamTimeoutMS = "raven.timeout_ms"
	ParamNoCache   = "raven.no_cache"
)

// FromSessionParams parses pg startup -c key=value pairs (already split
// into a map) into one layer. Unknown raven.* keys error so typos fail
// the connection loudly instead of silently dropping the knob; foreign
// keys (application_name etc.) are ignored by the caller before this.
func FromSessionParams(kv map[string]string) (Options, error) {
	var o Options
	for k, v := range kv {
		switch k {
		case ParamPriority:
			p, err := strconv.Atoi(v)
			if err != nil {
				return Options{}, fmt.Errorf("bad %s %q: not an integer", k, v)
			}
			o.Priority = &p
		case ParamDOP:
			d, err := strconv.Atoi(v)
			if err != nil || d < 0 {
				return Options{}, fmt.Errorf("bad %s %q: not a non-negative integer", k, v)
			}
			o.DOP = d
		case ParamTimeoutMS:
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms < 0 {
				return Options{}, fmt.Errorf("bad %s %q: not a non-negative integer", k, v)
			}
			o.Timeout = time.Duration(ms) * time.Millisecond
		case ParamNoCache:
			b, err := parseWireBool(v)
			if err != nil {
				return Options{}, fmt.Errorf("bad %s %q: want a boolean", k, v)
			}
			o.NoCache = b
		default:
			if strings.HasPrefix(k, "raven.") {
				return Options{}, fmt.Errorf("unknown session parameter %s", k)
			}
		}
	}
	return o, nil
}

// parseWireBool accepts the spellings both HTTP clients and pg clients
// send: 1/0, true/false, on/off, t/f (case-insensitive).
func parseWireBool(v string) (bool, error) {
	switch strings.ToLower(v) {
	case "1", "true", "t", "on", "yes":
		return true, nil
	case "0", "false", "f", "off", "no":
		return false, nil
	}
	return false, fmt.Errorf("not a boolean: %q", v)
}
