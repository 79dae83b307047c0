package ort

import (
	"context"
	"strings"

	"raven/internal/rescache"
)

// SessionCache keys compiled sessions by model content hash. It reproduces
// SQL Server's model/inference-session caching across queries (paper §5,
// observation ii: 3 ms vs 20 ms on 100 tuples because the standalone
// runtime reloads the model from disk while the DB serves a cached session).
//
// It is a rescache.Cache: byte-budgeted LRU, so query-specialized
// sessions (one key per distinct query text) cannot grow without bound,
// and per-key singleflight, so a thundering herd on one model compiles it
// once while queries compiling different models never serialize.
type SessionCache struct {
	c *rescache.Cache[cachedSession]
}

// cachedSession carries its key so Invalidate can sweep by model hash.
type cachedSession struct {
	key string
	s   *Session
}

// sessionCacheBytes bounds the weights all cached sessions may hold; one
// session may take a quarter of it. sessionOverheadBytes is charged per
// session on top of its weights, so weightless graphs are bounded too.
const (
	sessionCacheBytes    = 256 << 20
	sessionOverheadBytes = 4 << 10
)

// NewSessionCache returns an empty cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{c: rescache.New[cachedSession](sessionCacheBytes, 0)}
}

// Get returns the cached session for key, or compiles one via build and
// caches it. Only the first caller for a key runs build; concurrent
// callers wait on that key alone (counted as hits — they avoided a
// compile). A build that fails or panics caches nothing and releases its
// waiters to build for themselves.
func (c *SessionCache) Get(key string, build func() (*Session, error)) (*Session, error) {
	// BuildSession has no context to pass: a waiter waits out the build.
	e, err := c.c.Load(context.TODO(), key, nil, func() (cachedSession, int64, error) {
		s, err := build()
		if err != nil {
			return cachedSession{}, 0, err
		}
		size := int64(sessionOverheadBytes)
		for _, t := range s.graph.Initializers {
			size += int64(len(t.Data)) * 8
		}
		return cachedSession{key: key, s: s}, size, nil
	})
	return e.s, err
}

// Invalidate drops every session compiled from the model version with
// this content hash: the plain-hash session and the query-specialized
// ones keyed hash#query.
func (c *SessionCache) Invalidate(modelHash string) {
	c.c.Sweep(func(e cachedSession) bool { return !strings.HasPrefix(e.key, modelHash) })
}

// Stats snapshots the cache counters.
func (c *SessionCache) Stats() rescache.Stats { return c.c.Stats() }
