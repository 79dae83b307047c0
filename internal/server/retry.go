package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"time"
)

// retryPolicy is exponential backoff with full jitter for the client
// path: attempt, and on a transient failure sleep a random slice of an
// exponentially growing window before trying again. The window starts
// at base and doubles per attempt up to max; the sleep is uniform in
// (0, window], so a burst of callers retrying the same dead replica
// spreads out instead of thundering.
type retryPolicy struct {
	attempts  int // total tries, the first included
	base, max time.Duration
}

// RetryAttempts bounds the tries of one retried call, the first
// included.
const RetryAttempts = 3

// clientRetry is the one policy: the cluster router's per-replica
// retries of idempotent reads, prepares and replication all back off
// the same way instead of hammering a struggling replica in lockstep.
var clientRetry = retryPolicy{attempts: RetryAttempts, base: 25 * time.Millisecond, max: time.Second}

// backoff returns the jittered sleep before retry attempt n (0-based
// count of failures so far): uniform in (0, min(base<<n, max)].
func (p retryPolicy) backoff(n int) time.Duration {
	window := p.base << uint(n)
	if window > p.max || window <= 0 { // <<-overflow guards included
		window = p.max
	}
	return time.Duration(1 + rand.Int63n(int64(window)))
}

// do runs fn up to p.attempts times, sleeping the jittered backoff
// between attempts, until fn succeeds, fn fails terminally (not
// Transient), ctx dies, or attempts run out — whichever comes first.
// The last error is returned.
func (p retryPolicy) do(ctx context.Context, fn func() error) error {
	var err error
	for attempt := 0; attempt < p.attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(p.backoff(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		if err = fn(); err == nil || !Transient(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}

// RetryBackoff is the sleep before retry attempt n under the one policy.
func RetryBackoff(n int) time.Duration { return clientRetry.backoff(n) }

// Retry runs fn under the one policy, retrying Transient failures.
func Retry(ctx context.Context, fn func() error) error { return clientRetry.do(ctx, fn) }

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
