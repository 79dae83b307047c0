package reqopt

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"raven"
)

func TestResolvePrecedence(t *testing.T) {
	ctxLayer := Options{Tenant: "proxy"}
	reqLayer := Options{Tenant: "body", DOP: 4, NoCache: true}
	stmtLayer := Options{Tenant: "stmt", Timeout: time.Second}
	def := Options{Timeout: time.Minute}

	got := Resolve(ctxLayer, reqLayer, stmtLayer, def)
	if got.Tenant != "proxy" {
		t.Fatalf("ctx layer must win: %+v", got)
	}
	if got.DOP != 4 {
		t.Fatalf("unset upper layers fall through: DOP %d", got.DOP)
	}
	if got.Timeout != time.Second {
		t.Fatalf("stmt timeout beats server default: %v", got.Timeout)
	}
	if !got.NoCache {
		t.Fatal("NoCache must OR across layers")
	}
}

func TestClamp(t *testing.T) {
	o := Options{DOP: 1 << 20}.Clamp()
	if o.DOP != MaxWireDOP() {
		t.Fatalf("clamp: %+v", o)
	}
	o = Options{DOP: -3}.Clamp()
	if o.DOP != 0 {
		t.Fatalf("clamp: %+v", o)
	}
}

func TestApplyAndContext(t *testing.T) {
	qo := raven.DefaultQueryOptions()
	qo.Parallelism = 7
	Options{Tenant: "t", NoCache: true}.Apply(&qo)
	if qo.Tenant != "t" || !qo.NoResultCache {
		t.Fatalf("apply: %+v", qo)
	}
	if qo.Parallelism != 7 {
		t.Fatalf("zero DOP must not clobber engine parallelism: %d", qo.Parallelism)
	}
	Options{DOP: 2}.Apply(&qo)
	if qo.Parallelism != 2 {
		t.Fatalf("set DOP must apply: %d", qo.Parallelism)
	}
	if !qo.NoResultCache {
		t.Fatal("NoResultCache is one-way")
	}

	// Context must at minimum return a derived, non-nil context; the
	// tag's effect on admission is covered by the front-end tests
	// (pgwire's tenant-attribution test bills through this path).
	if ctx := (Options{Tenant: "t"}).Context(context.Background()); ctx == nil {
		t.Fatal("nil context")
	}
}

func TestFromHeaders(t *testing.T) {
	h := http.Header{}
	h.Set(HeaderTenant, "acme")
	h.Set(HeaderDOP, "3")
	h.Set(HeaderTimeoutMS, "1500")
	h.Set(HeaderNoCache, "1")
	o, err := FromHeaders(h)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if o.Tenant != "acme" || o.DOP != 3 ||
		o.Timeout != 1500*time.Millisecond || !o.NoCache {
		t.Fatalf("parsed: %+v", o)
	}

	for name, hdr := range map[string][2]string{
		"bad dop":          {HeaderDOP, "-1"},
		"bad timeout":      {HeaderTimeoutMS, "soon"},
		"bad nocache":      {HeaderNoCache, "maybe"},
		"removed priority": {"X-Raven-Priority", "7"},
		"unknown knob":     {"x-raven-typo", "1"},
	} {
		h := http.Header{}
		h.Set(HeaderTenant, "acme")
		h.Set(hdr[0], hdr[1])
		if _, err := FromHeaders(h); err == nil || !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(hdr[0])) {
			t.Errorf("%s: want an error naming %s, got %v", name, hdr[0], err)
		}
	}
}

func TestFromSessionParams(t *testing.T) {
	o, err := FromSessionParams(map[string]string{
		ParamDOP:       "4",
		ParamTimeoutMS: "250",
		ParamNoCache:   "on",
		"app.foreign":  "ignored",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if o.DOP != 4 || o.Timeout != 250*time.Millisecond || !o.NoCache {
		t.Fatalf("parsed: %+v", o)
	}
	for _, k := range []string{"raven.typo", "raven.priority"} {
		if _, err := FromSessionParams(map[string]string{k: "1"}); err == nil || !strings.Contains(err.Error(), k) {
			t.Errorf("unknown key %s: want an error naming it, got %v", k, err)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		status int
		state  string
		retry  bool
	}{
		{raven.ErrQueueFull, 429, SQLStateTooManyConns, true},
		{raven.ErrTenantQuota, 429, SQLStateTooManyConns, false},
		{ErrStmtLimit, 429, SQLStateTooManyConns, false},
		{raven.ErrQueueTimeout, 504, SQLStateQueryCanceled, false},
		{context.DeadlineExceeded, 504, SQLStateQueryCanceled, false},
		{raven.ErrDraining, 503, SQLStateAdminShutdown, true},
		{context.Canceled, 499, SQLStateQueryCanceled, false},
		{ErrStmtNotFound, 404, SQLStateInvalidStmtName, false},
		{errors.New("parse error"), 400, SQLStateSyntaxError, false},
	}
	for _, c := range cases {
		cl := Classify(c.err)
		if cl.HTTPStatus != c.status || cl.SQLState != c.state || cl.RetryAfter != c.retry {
			t.Errorf("%v: got %+v, want (%d, %s, %v)", c.err, cl, c.status, c.state, c.retry)
		}
	}
	// Wrapped errors classify the same.
	if HTTPStatus(errorsJoin(raven.ErrQueueFull)) != 429 {
		t.Error("wrapped queue-full must stay 429")
	}
	if SQLState(errorsJoin(raven.ErrDraining)) != SQLStateAdminShutdown {
		t.Error("wrapped draining must stay 57P01")
	}
}

func errorsJoin(err error) error { return errors.Join(errors.New("outer"), err) }
