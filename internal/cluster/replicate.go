package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"raven/internal/server"
)

// entryKind is what a replication-log entry carries.
type entryKind int

const (
	entryScript entryKind = iota // a side-effect-only SQL script
	entryModel                   // a serialized model pipeline
)

// logEntry is one replicated side effect. The log is append-only and
// ordered; every member tracks the highest seq it has applied this
// process lifetime, so fan-out and repair are the same operation:
// replay appliedSeq+1..head.
type logEntry struct {
	seq    uint64
	kind   entryKind
	sql    string // entryScript
	name   string // entryModel
	data   []byte // entryModel: gob-encoded pipeline
	tenant string // admission identity the side effect bills to
}

func (e *logEntry) describe() string {
	if e.kind == entryModel {
		return fmt.Sprintf("model %q", e.name)
	}
	s := strings.TrimSpace(e.sql)
	if len(s) > 40 {
		s = s[:40] + "..."
	}
	return fmt.Sprintf("script %q", s)
}

// appendEntry assigns the next seq under the router lock and returns
// the entry.
func (rt *Router) appendEntry(e logEntry) *logEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.logSeq++
	e.seq = rt.logSeq
	rt.log = append(rt.log, e)
	return &rt.log[len(rt.log)-1]
}

// logHead returns the seq of the newest entry (0 = empty log).
func (rt *Router) logHead() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.logSeq
}

// entriesAfter returns the log tail with seq > after.
func (rt *Router) entriesAfter(after uint64) []logEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// The log is never truncated, so entry seqs are 1..len(log) and the
	// tail after `after` starts at index `after`.
	if int(after) >= len(rt.log) {
		return nil
	}
	tail := make([]logEntry, len(rt.log)-int(after))
	copy(tail, rt.log[after:])
	return tail
}

// replicate validates a side effect on one replica, appends it to the
// log, then fans it out to every other member. The validation apply
// runs BEFORE the entry exists anywhere: a script that is simply wrong
// (bad SQL, duplicate CREATE TABLE — the replica answers a terminal
// 4xx) fails fast with that replica's verdict, never enters the log,
// and so never degrades healthy members or gets replayed by the
// reconciler. replMu serializes replications so the validated entry's
// seq directly follows what the validating replica already applied.
// Fan-out members that fail are marked degraded (the reconciler replays
// the log to them before they take traffic again), so a replica being
// down does not block DDL for the rest of the cluster — it just has
// catching up to do.
func (rt *Router) replicate(ctx context.Context, e logEntry) error {
	rt.replMu.Lock()
	defer rt.replMu.Unlock()

	members := rt.snapshotMembers()
	if len(members) == 0 {
		return errors.New("no replicas registered")
	}

	// Validation candidates: routable (fully-applied) members first —
	// their verdict on the entry is authoritative — then any reachable
	// member as a fallback when nothing is routable. A transient failure
	// moves on to the next candidate; a terminal one is the answer.
	var primary *member
	var lastErr error
	for _, routableOnly := range []bool{true, false} {
		for _, m := range members {
			if routableOnly != m.routable() || m.getState() == StateDown {
				continue
			}
			if lastErr = rt.applyEntry(ctx, m, &e); lastErr == nil {
				primary = m
				break
			}
			if !server.Transient(lastErr) {
				return fmt.Errorf("replicating %s: replica %s: %w", e.describe(), m.name, lastErr)
			}
		}
		if primary != nil {
			break
		}
	}
	if primary == nil {
		if lastErr == nil {
			return errors.New("no reachable replicas")
		}
		return fmt.Errorf("replicating %s: %w", e.describe(), lastErr)
	}

	entry := rt.appendEntry(e)
	// The validating replica already applied this entry; record that so
	// fan-out does not replay it there. replMu guarantees no entry was
	// appended in between, so a fully-caught-up primary sits exactly one
	// seq behind; a behind (non-routable fallback) primary keeps its
	// replay position and the terminal-skip in syncMember absorbs the
	// eventual duplicate apply.
	primary.applyMu.Lock()
	if primary.appliedSeq.Load() == entry.seq-1 {
		primary.appliedSeq.Store(entry.seq)
	}
	primary.applyMu.Unlock()

	// Fan out. The entry is already durable on the primary, so stragglers
	// do not fail the request — they are degraded and repaired by the
	// reconciler's replay instead.
	type result struct {
		m   *member
		err error
	}
	results := make(chan result, len(members))
	for _, m := range members {
		go func(m *member) {
			results <- result{m, rt.syncMember(ctx, m)}
		}(m)
	}
	for range members {
		r := <-results
		if r.err == nil {
			continue
		}
		// Down members were already not routable; reachable ones that
		// failed to apply must stop taking traffic until repaired.
		if r.m.getState() == StateHealthy {
			r.m.setState(StateDegraded)
		}
	}
	return nil
}

// applyEntry applies one log entry to one member, retrying transient
// failures. Each call runs under its own applyTimeout-derived deadline,
// independent of the probe interval and the default client timeout, so
// slow entries (a long TRAIN, a large model upload) get a real budget
// both on the fan-out path and during reconciler repair.
func (rt *Router) applyEntry(ctx context.Context, m *member, e *logEntry) error {
	actx, cancel := context.WithTimeout(ctx, applyTimeout)
	defer cancel()
	if e.kind == entryModel {
		return server.Retry(actx, func() error {
			return m.c.StoreModel(actx, server.ModelRequest{Name: e.name, Data: e.data, Tenant: e.tenant})
		})
	}
	return server.Retry(actx, func() error {
		res, qerr := m.c.QueryContext(actx, server.QueryRequest{SQL: e.sql, Tenant: e.tenant})
		if qerr != nil {
			return qerr
		}
		if !res.OK {
			return fmt.Errorf("side-effect script streamed %d rows", len(res.Rows))
		}
		return nil
	})
}

// syncMember replays the log tail this member has not applied yet, in
// order, and reads back the catalog version. applyMu makes it safe to
// call concurrently from the fan-out path and the reconciler: whoever
// gets there first applies the entries, the other finds appliedSeq
// already at head and just re-reads the version. appliedSeq advances
// per entry, so a replay cut short (context expiry, replica blip)
// resumes where it stopped instead of re-paying the prefix.
func (rt *Router) syncMember(ctx context.Context, m *member) error {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()

	for _, e := range rt.entriesAfter(m.appliedSeq.Load()) {
		if err := rt.applyEntry(ctx, m, &e); err != nil {
			// Entries are validated on a replica before they enter the
			// log, so a terminal 4xx verdict here means THIS replica has
			// diverged (direct writes, a double-applied fallback
			// validation) — retrying the same entry on every reconcile
			// pass can never succeed and would wedge the member in
			// degraded forever. Skip past it; the divergence stays
			// visible in the log_skipped counter and the catalog-version
			// read-back.
			var he *server.HTTPError
			if !server.Transient(err) && errors.As(err, &he) && he.Status >= 400 && he.Status < 500 {
				rt.skipped.Add(1)
				m.appliedSeq.Store(e.seq)
				continue
			}
			return fmt.Errorf("apply entry %d (%s): %w", e.seq, e.describe(), err)
		}
		m.appliedSeq.Store(e.seq)
	}

	// Catalog-version read-back: record what "fully applied" looks like
	// on this replica, so the next probe can tell a restart (version
	// regression) from normal operation.
	v, err := m.c.CatalogVersion(ctx)
	if err != nil {
		return fmt.Errorf("version read-back: %w", err)
	}
	m.lastVersion = v
	return nil
}
