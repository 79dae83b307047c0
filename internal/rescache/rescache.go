// Package rescache is the tree's one cache: a byte-budgeted LRU with
// per-key singleflight and validation at lookup. It has two users — the
// engine's result cache (materialized batches) and the inference-session
// cache in internal/ort (compiled sessions, sized by their weights).
//
// Invalidation is validation-at-lookup rather than fingerprint-in-key:
// the producer cannot know what an entry depends on (which tables a
// plan reads, which catalog version it compiled against) until after it
// has compiled — so the entry carries its dependencies and the caller
// supplies a validity predicate at lookup. An entry that fails the
// predicate is dropped and counted as an invalidation, not a miss of
// unknown cause; stale entries therefore cost one lookup, never one
// stale answer.
//
// Singleflight makes N concurrent identical misses cost one execution:
// the first caller becomes the flight leader and executes; the rest
// block on the flight and re-check the cache when the leader finishes.
// A leader that fails, or abandons an oversized result mid-stream,
// releases its waiters to execute for themselves — collapse is an
// optimization, never a correctness dependency.
package rescache

import (
	"context"
	"sync"
)

// Stats is the cache's counter snapshot, shaped for JSON stats
// endpoints.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped for capacity (LRU);
	// Invalidations counts entries dropped because their validity
	// predicate failed (the data or catalog moved underneath them).
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// Abandoned counts results that outgrew the per-entry cap while
	// being captured and were dropped mid-stream.
	Abandoned uint64 `json:"abandoned"`
	// Collapsed counts queries served by waiting on another caller's
	// in-flight execution instead of executing themselves.
	Collapsed uint64 `json:"singleflight_collapsed"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	// EntryCapBytes is the per-entry size cap; results above it are
	// never cached.
	EntryCapBytes int64 `json:"entry_cap_bytes"`
	Entries       int   `json:"entries"`
}

// Cache is a byte-budgeted LRU keyed by string, storing values of type
// V with caller-declared sizes. All methods are safe for concurrent
// use.
type Cache[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	entryCap int64
	bytes    int64
	entries  map[string]*entry[V]
	flights  map[string]*flight
	tick     uint64
	stats    Stats
}

type entry[V any] struct {
	v    V
	size int64
	used uint64
}

// flight is one in-progress execution for a key. done is closed exactly
// once — by Commit, Abandon or Cancel — releasing every waiter.
type flight struct {
	done chan struct{}
}

// New creates a cache holding at most maxBytes of values. entryCap
// bounds a single entry; <= 0 defaults to maxBytes/4, so one giant
// result can never monopolize the budget.
func New[V any](maxBytes, entryCap int64) *Cache[V] {
	if entryCap <= 0 {
		entryCap = maxBytes / 4
	}
	if entryCap < 1 {
		entryCap = 1
	}
	return &Cache[V]{
		maxBytes: maxBytes,
		entryCap: entryCap,
		entries:  make(map[string]*entry[V]),
		flights:  make(map[string]*flight),
	}
}

// EntryCap is the per-entry byte cap; producers use it to stop
// capturing a result the cache would refuse anyway.
func (c *Cache[V]) EntryCap() int64 { return c.entryCap }

// lookupLocked is the shared hit path: validate, refresh recency, count.
// Caller holds c.mu.
func (c *Cache[V]) lookupLocked(key string, valid func(V) bool) (V, bool) {
	var zero V
	e, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	if valid != nil && !valid(e.v) {
		delete(c.entries, key)
		c.bytes -= e.size
		c.stats.Invalidations++
		return zero, false
	}
	c.tick++
	e.used = c.tick
	return e.v, true
}

// Get is a plain lookup: hit if present and valid. It never joins or
// creates a flight — use Do for singleflight semantics.
func (c *Cache[V]) Get(key string, valid func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookupLocked(key, valid)
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return v, ok
}

// Put inserts a value directly (no flight), evicting LRU entries to
// fit. Values over the per-entry cap are silently refused — the caller
// already has the value, the cache just declines to keep it.
func (c *Cache[V]) Put(key string, v V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, v, size)
}

// putLocked owns the oversize guard so every insertion path — Put and a
// flight's Commit — refuses entries over the per-entry cap identically.
// A replaced entry leaves the map the moment its size is subtracted:
// otherwise the eviction loop below could pick it as the LRU victim and
// subtract it a second time, driving c.bytes permanently negative.
func (c *Cache[V]) putLocked(key string, v V, size int64) {
	if size > c.entryCap || size > c.maxBytes {
		return
	}
	if old, ok := c.entries[key]; ok {
		delete(c.entries, key)
		c.bytes -= old.size
	}
	for c.bytes+size > c.maxBytes && len(c.entries) > 0 {
		var lruKey string
		var lruUsed uint64
		first := true
		for k, e := range c.entries {
			if first || e.used < lruUsed {
				lruKey, lruUsed, first = k, e.used, false
			}
		}
		c.bytes -= c.entries[lruKey].size
		delete(c.entries, lruKey)
		c.stats.Evictions++
	}
	if c.bytes+size > c.maxBytes {
		return
	}
	c.tick++
	c.entries[key] = &entry[V]{v: v, size: size, used: c.tick}
	c.bytes += size
}

// Flight is a leadership ticket for one key: the holder is executing
// the query every waiter on that key is blocked on. Exactly one of
// Commit, Abandon or Cancel must be called; all are idempotent after
// the first.
type Flight[V any] struct {
	c    *Cache[V]
	key  string
	fl   *flight
	once sync.Once
}

func (f *Flight[V]) finish(store bool, v V, size int64, abandoned bool) {
	if f == nil {
		return
	}
	f.once.Do(func() {
		f.c.mu.Lock()
		if store {
			f.c.putLocked(f.key, v, size)
		}
		if abandoned {
			f.c.stats.Abandoned++
		}
		delete(f.c.flights, f.key)
		f.c.mu.Unlock()
		close(f.fl.done)
	})
}

// Commit stores the finished result and wakes the waiters, who re-check
// the cache and hit. Oversized results are refused by the shared
// per-entry cap but the waiters are still released.
func (f *Flight[V]) Commit(v V, size int64) {
	f.finish(true, v, size, false)
}

// Abandon drops the flight because the result outgrew the per-entry
// cap; waiters wake and execute for themselves.
func (f *Flight[V]) Abandon() {
	var zero V
	f.finish(false, zero, 0, true)
}

// Cancel drops the flight on an error path (compile failed, context
// expired, caller never consumed the stream); waiters wake and execute
// for themselves. Not counted as an abandonment — nothing was dropped
// for size.
func (f *Flight[V]) Cancel() {
	var zero V
	f.finish(false, zero, 0, false)
}

// Do is the singleflight lookup. It returns, in order of preference:
//   - (v, true, nil, nil): a hit — cached directly or after waiting on
//     another caller's flight (counted in Stats.Collapsed).
//   - (zero, false, flight, nil): a miss with leadership — the caller
//     must execute and settle the flight via Commit/Abandon/Cancel.
//   - (zero, false, nil, err): ctx expired while waiting.
func (c *Cache[V]) Do(ctx context.Context, key string, valid func(V) bool) (V, bool, *Flight[V], error) {
	var zero V
	waited := false
	for {
		c.mu.Lock()
		if v, ok := c.lookupLocked(key, valid); ok {
			c.stats.Hits++
			if waited {
				c.stats.Collapsed++
			}
			c.mu.Unlock()
			return v, true, nil, nil
		}
		if fl, inflight := c.flights[key]; inflight {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return zero, false, nil, ctx.Err()
			case <-fl.done:
			}
			waited = true
			continue
		}
		c.stats.Misses++
		fl := &flight{done: make(chan struct{})}
		c.flights[key] = fl
		c.mu.Unlock()
		return zero, false, &Flight[V]{c: c, key: key, fl: fl}, nil
	}
}

// Load is get-or-build over Do: a hit (cached, or produced by the flight
// this call waited on) is returned as is; a miss makes the caller the
// leader, which runs build outside the lock and commits what it returns
// with the size it declares. A build that fails or panics cancels the
// flight on the way out, so its waiters wake and build for themselves —
// nothing is cached and the next Load retries.
func (c *Cache[V]) Load(ctx context.Context, key string, valid func(V) bool, build func() (V, int64, error)) (V, error) {
	v, hit, fl, err := c.Do(ctx, key, valid)
	if hit || err != nil {
		return v, err
	}
	defer fl.Cancel()
	v, size, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	fl.Commit(v, size)
	return v, nil
}

// Sweep drops every entry failing the validity predicate (counted as
// invalidations). Validation-at-lookup already keeps stale entries from
// ever being served; Sweep exists so their memory is reclaimed eagerly
// on an invalidating event (a catalog bump) instead of lingering until
// LRU pressure or a chance lookup touches them.
func (c *Cache[V]) Sweep(valid func(V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if !valid(e.v) {
			delete(c.entries, k)
			c.bytes -= e.size
			c.stats.Invalidations++
		}
	}
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	s.EntryCapBytes = c.entryCap
	s.Entries = len(c.entries)
	return s
}
