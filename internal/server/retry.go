package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"time"
)

// RetryPolicy is exponential backoff with full jitter for the client
// path: attempt, and on a retryable failure sleep a random slice of an
// exponentially growing window before trying again. The cluster router
// uses it for per-replica retries of idempotent reads, so every retry
// loop in the system backs off the same way instead of hammering a
// struggling replica in lockstep.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries (first attempt included);
	// values < 1 mean one attempt, i.e. no retrying.
	MaxAttempts int
	// BaseDelay seeds the backoff window (default 25ms); the window
	// doubles per attempt up to MaxDelay (default 1s). The actual sleep
	// is uniform in (0, window] — full jitter, so a burst of callers
	// retrying the same dead replica spreads out instead of thundering.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetry is the policy used when a zero RetryPolicy is given.
var DefaultRetry = RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = DefaultRetry.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetry.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetry.MaxDelay
	}
	return p
}

// Backoff returns the jittered sleep before retry attempt n (0-based
// count of failures so far): uniform in (0, min(BaseDelay<<n, MaxDelay)].
func (p RetryPolicy) Backoff(n int) time.Duration {
	p = p.normalized()
	window := p.BaseDelay << uint(n)
	if window > p.MaxDelay || window <= 0 { // <<-overflow guards included
		window = p.MaxDelay
	}
	return time.Duration(1 + rand.Int63n(int64(window)))
}

// Do runs fn up to MaxAttempts times, sleeping the jittered backoff
// between attempts, until fn succeeds, fn fails terminally (retryable
// returns false), ctx dies, or attempts run out — whichever comes
// first. The last error is returned. retryable nil means Transient.
func (p RetryPolicy) Do(ctx context.Context, retryable func(error) bool, fn func() error) error {
	p = p.normalized()
	if retryable == nil {
		retryable = Transient
	}
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(p.Backoff(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		if err = fn(); err == nil || !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}

// Transient classifies an error as worth retrying: transport failures
// (connection refused/reset — the replica may be restarting) and the
// load-shedding statuses 503 (draining/overload, another replica or a
// later attempt can serve) and 429 (momentary admission pressure).
// Client errors (4xx), stream-integrity failures and context expiry are
// terminal: retrying cannot change them.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status == http.StatusServiceUnavailable || he.Status == http.StatusTooManyRequests
	}
	// Anything that is not an HTTP-level error from the server is a
	// transport failure (dial, reset, EOF mid-handshake): retryable.
	return true
}
