package raven

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"raven/internal/ir"
	"raven/internal/plan"
	"raven/internal/storage"
)

// cachedPlan is one compiled statement template: the front half of query
// processing (parse → bind → unified IR → cross optimization) done once.
// It is immutable after construction — executions lower it into fresh
// operator trees (codegen re-runs per call, so data growth still flips
// scans between one worker and DOP-wide) and parameterized plans are cloned,
// never mutated, at bind time.
type cachedPlan struct {
	graph   *ir.Graph
	applied []string
	// sessionKey keys the inference-session cache (model hash, possibly
	// query-specialized); empty disables session caching.
	sessionKey string
	// params names the unbound @parameters the plan needs at execute time,
	// sorted. Non-empty only for prepared statements.
	params []string
	// version is the catalog version the plan was compiled against; any
	// DDL or model store bumps it, invalidating the plan.
	version uint64
	// tables lists every table the bound plan scans, collected from the
	// logical plan before IR construction (FromPlan splices nodes out).
	// The result cache snapshots their data versions around execution;
	// the plan cache itself doesn't need them (plans survive appends —
	// results don't).
	tables []*storage.Table
}

// defaultPlanCacheSize bounds the engine-level plan cache. Entries are a
// few KB (an optimized IR graph), so the default is generous for a
// serving workload's distinct statement set.
const defaultPlanCacheSize = 256

// planCache is the engine-level compiled-plan cache keyed by (SQL text,
// options fingerprint, catalog version). It is what makes prepare-once/
// execute-many and warm repeated queries skip parse/bind/optimize — the
// session-state amortization the paper credits for its warm-run speedups
// (§5 observation ii), applied to plans.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	hits    uint64
	misses  uint64
	// evictions counts entries dropped for capacity (LRU); invalidations
	// counts entries dropped because the catalog moved underneath them.
	// Separately visible in /stats: a hot eviction churn means the cache
	// is undersized, an invalidation churn means DDL/model-store traffic.
	evictions     uint64
	invalidations uint64
	max           int
	// tick orders uses for LRU eviction: ad-hoc statements with inline
	// literals each occupy their own key, so without recency the churn
	// they generate would evict hot repeated statements at random.
	tick uint64
}

// planEntry pairs a cached plan with its last-use tick.
type planEntry struct {
	plan *cachedPlan
	used uint64
}

func newPlanCache(max int) *planCache {
	return &planCache{entries: make(map[string]*planEntry), max: max}
}

// get returns the cached plan for key if it was compiled against the
// current catalog version; a stale entry is dropped and counts as a miss.
func (c *planCache) get(key string, version uint64) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.plan.version == version {
		c.hits++
		c.tick++
		e.used = c.tick
		return e.plan
	}
	if ok {
		delete(c.entries, key)
		c.invalidations++
	}
	c.misses++
	return nil
}

// put caches a plan, first evicting entries invalidated by catalog
// changes, then the least-recently-used entries if the cache is still
// over capacity. current is the catalog version now: a plan whose compile
// straddled a catalog change (p.version != current) is already stale and
// is not inserted — and must not evict the fresher entries around it.
func (c *planCache) put(key string, p *cachedPlan, current uint64) {
	if p.version != current {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.plan.version != current {
			delete(c.entries, k)
			c.invalidations++
		}
	}
	for len(c.entries) >= c.max {
		var lruKey string
		var lruUsed uint64
		for k, e := range c.entries {
			if lruKey == "" || e.used < lruUsed {
				lruKey, lruUsed = k, e.used
			}
		}
		delete(c.entries, lruKey)
		c.evictions++
	}
	c.tick++
	c.entries[key] = &planEntry{plan: p, used: c.tick}
}

// sweep drops every entry not compiled against the current catalog
// version, counting them as invalidations.
func (c *planCache) sweep(current uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.plan.version != current {
			delete(c.entries, k)
			c.invalidations++
		}
	}
}

// sweepStaleCaches eagerly drops plan- and result-cache entries
// compiled against an older catalog version. Both caches already
// validate at lookup, so staleness is never served either way — this
// pass exists for memory: entries pin the tables their plans scan
// (the IR graph holds the scan targets), so after a DROP TABLE the
// dropped table's column data would otherwise stay reachable until LRU
// pressure or a chance lookup happened to touch each entry. Called
// after any statement or model store that bumps the catalog version.
func (db *DB) sweepStaleCaches() {
	current := db.catalog.Version()
	db.plans.sweep(current)
	if db.results != nil {
		db.results.Sweep(func(e *resultEntry) bool { return e.version == current })
	}
}

// info snapshots the cache counters for DB.Stats / the /stats endpoint.
func (c *planCache) info() PlanCacheInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheInfo{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Size:          len(c.entries),
		Capacity:      c.max,
	}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// planKey builds the cache key: every compile-relevant input that is not
// the catalog version (which is checked at lookup). Execution knobs
// (parallelism, morsel size, thresholds) are deliberately absent — they
// are applied when the template lowers to operators, so one cached plan
// serves every DOP. vars is the session-variable snapshot the caller will
// also compile with, so key and plan cannot disagree under a concurrent
// Exec DECLARE.
func (db *DB) planKey(q string, opts QueryOptions, allowParams bool, vars map[string]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "x=%t s=%t q=%t di=%t dn=%t dp=%t dj=%t g=%t m=%d dc=%t ap=%t",
		opts.CrossOptimize, opts.UseStatistics, opts.ModelQuerySplitting,
		opts.DisableInlining, opts.DisableNNTranslation, opts.DisablePruning,
		opts.DisableProjectionPushdown, opts.UseGPU, opts.Mode,
		opts.DisableSessionCache, allowParams)
	// Session variables bind as literals, so the ones this statement
	// references are compile inputs too. Only referenced vars enter the
	// key: otherwise every unrelated DECLARE would strand the whole
	// cache's entries under dead keys. The reference scan is textual
	// (cheap, runs before parsing); a false positive — an @name inside a
	// string literal — only adds harmless key entropy.
	if len(vars) > 0 {
		names := make([]string, 0, len(vars))
		for k := range vars {
			if referencesVar(q, k) {
				names = append(names, k)
			}
		}
		if len(names) > 0 {
			sort.Strings(names)
			// Length-prefix each field so values containing the join
			// characters cannot collide two different environments onto
			// one fingerprint.
			h := sha256.New()
			for _, k := range names {
				fmt.Fprintf(h, "%d:%s=%d:%s;", len(k), k, len(vars[k]), vars[k])
			}
			sb.WriteString("|v=" + hex.EncodeToString(h.Sum(nil)[:8]))
		}
	}
	sb.WriteString("|")
	sb.WriteString(q)
	return sb.String()
}

// referencesVar reports whether q contains an @name token for the given
// variable, requiring a non-identifier character after the name so @min
// does not match @minage.
func referencesVar(q, name string) bool {
	for i := 0; i+len(name) < len(q); {
		j := strings.Index(q[i:], "@"+name)
		if j < 0 {
			return false
		}
		end := i + j + 1 + len(name)
		if end >= len(q) || !isIdentChar(q[end]) {
			return true
		}
		i = end
	}
	return false
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// collectPlanTables walks a bound logical plan for the tables it scans,
// deduplicated in first-visit order. Scan is the only node that holds a
// table, so this is the complete read set.
func collectPlanTables(n plan.Node) []*storage.Table {
	var out []*storage.Table
	seen := map[*storage.Table]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if n == nil {
			return
		}
		if s, ok := n.(*plan.Scan); ok && !seen[s.Table] {
			seen[s.Table] = true
			out = append(out, s.Table)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}
