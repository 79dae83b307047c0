package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/server"
)

// MemberState is where a replica sits between "registered" (desired)
// and "taking traffic" (actual).
type MemberState int32

const (
	// StateUnknown: registered but not yet probed successfully.
	StateUnknown MemberState = iota
	// StateHealthy: probe ok and the replication log fully applied —
	// eligible for routing.
	StateHealthy
	// StateDegraded: reachable but behind the replication log (missed a
	// fan-out, or restarted and lost state). Not routed to; the
	// reconciler repairs it by replaying the log, then promotes it.
	StateDegraded
	// StateDraining: the replica advertised a graceful drain on
	// /healthz. No new queries are routed; in-flight ones finish there.
	StateDraining
	// StateDown: consecutive probe failures crossed the threshold.
	StateDown
)

func (s MemberState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// member is one replica as the router sees it: the desired half (name,
// base URL, client) is set at registration; the actual half (state,
// probe failures, replication progress) converges via the reconciler.
type member struct {
	name string
	base string
	c    *server.Client

	state atomic.Int32 // MemberState
	// consecFails counts probes in a row that reached nothing. Start, the
	// loop and ProbeNow may probe at once, so it is atomic.
	consecFails atomic.Int32

	// applyMu serializes replication onto this member: the fan-out path
	// and the repair path share one replay routine, so entries apply in
	// log order exactly once per member lifetime.
	applyMu sync.Mutex
	// appliedSeq is the highest log entry applied this replica lifetime.
	// Writes happen under applyMu; it is atomic so the probe and the
	// fan-out can read replication progress without blocking behind a
	// slow apply holding applyMu for up to applyTimeout.
	appliedSeq  atomic.Uint64
	lastVersion uint64 // catalog version read back after the last apply/probe

	// stmtMu guards the replica-side ids of router statements prepared
	// on this member (router id -> replica id), populated lazily on
	// first use and wiped when a restart is detected.
	stmtMu sync.Mutex
	stmts  map[string]string
}

func (m *member) getState() MemberState  { return MemberState(m.state.Load()) }
func (m *member) setState(s MemberState) { m.state.Store(int32(s)) }
func (m *member) routable() bool         { return m.getState() == StateHealthy }

// forgetStmts wipes the replica-side statement ids (the registry died
// with the old process); the next execution re-prepares lazily.
func (m *member) forgetStmts() {
	m.stmtMu.Lock()
	m.stmts = make(map[string]string)
	m.stmtMu.Unlock()
}

// run is the reconciler loop: probe every member on a jittered
// interval, converge states, repair divergence. Jitter (±25%) keeps N
// routers (or one router's restarts) from synchronizing their probe
// bursts onto the replicas.
func (rt *Router) run() {
	defer close(rt.loopDone)
	// The loop context dies with the router, not with a tick: probes
	// bound themselves with probeTimeout and repair replays with
	// applyTimeout per entry, so a long catch-up (restarted replica, slow
	// TRAIN entries) is not squeezed into one probe budget — but Close
	// still cuts it off promptly.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-rt.stop
		cancel()
	}()
	for {
		jit := time.Duration(rand.Int63n(int64(probeInterval)/2+1)) - probeInterval/4
		t := time.NewTimer(probeInterval + jit)
		select {
		case <-rt.stop:
			t.Stop()
			return
		case <-t.C:
		}
		rt.reconcile(ctx)
	}
}

// ProbeNow runs one synchronous reconcile pass: probe all members,
// update states, repair any member behind the log. Tests use it to
// converge deterministically instead of sleeping through probe
// intervals; Start runs one so the members registered before it are
// routable before the first tick.
func (rt *Router) ProbeNow(ctx context.Context) {
	rt.reconcile(ctx)
}

// reconcile is one control-loop pass over desired vs actual: for each
// registered member, observe (probe /healthz), diff (state, catalog
// version vs replication log), and act (mark, repair, promote).
func (rt *Router) reconcile(ctx context.Context) {
	members := rt.snapshotMembers()
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			rt.probeMember(ctx, m)
		}(m)
	}
	wg.Wait()
}

// probeMember observes one replica and converges its state. Only the
// health probe itself runs under probeTimeout; a repair replay gets
// applyTimeout per entry (via applyEntry) and resumes from appliedSeq,
// so a replica with a long or slow log to catch up on converges over
// however many passes it needs instead of failing each one at the
// probe deadline.
func (rt *Router) probeMember(ctx context.Context, m *member) {
	pctx, pcancel := context.WithTimeout(ctx, probeTimeout)
	h, err := m.c.Health(pctx)
	pcancel()

	if err != nil && h == nil {
		// Transport-level failure: unreachable. One blip is tolerated
		// (a restarting replica closes its listener briefly); crossing
		// the threshold marks it down.
		if m.consecFails.Add(1) >= failThreshold {
			m.setState(StateDown)
		}
		return
	}

	// Reachable (200, or 503 with a parsed draining body).
	m.consecFails.Store(0)

	if h.Status == "draining" {
		m.setState(StateDraining)
		return
	}

	// Version read-back against the replication log. Three cases:
	//   probed < lastVersion: the replica went backwards — it restarted
	//     and lost state. Reset replication progress, wipe its statement
	//     ids, replay the whole log.
	//   probed > lastVersion with the log fully applied: version moved
	//     without us (direct writes to the replica). Adopt it — also the
	//     path that picks up the baseline version on the first probe.
	//   behind the log head: a missed fan-out; replay the tail.
	m.applyMu.Lock()
	restarted := h.CatalogVersion < m.lastVersion
	if restarted {
		m.appliedSeq.Store(0)
		m.lastVersion = h.CatalogVersion
	} else if h.CatalogVersion > m.lastVersion {
		m.lastVersion = h.CatalogVersion
	}
	behind := m.appliedSeq.Load() < rt.logHead()
	m.applyMu.Unlock()

	if restarted {
		m.forgetStmts()
	}
	if behind || restarted {
		m.setState(StateDegraded)
		if err := rt.syncMember(ctx, m); err != nil {
			return // stays degraded; next pass retries
		}
		rt.repairs.Add(1)
	}
	m.setState(StateHealthy)
}
