package raven

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

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
	// graph is the optimized tree; its model operators carry their
	// session-cache keys.
	graph   *ir.Graph
	applied []string
	// params names the unbound @parameters the plan needs at execute time,
	// sorted. Non-empty only for prepared statements.
	params []string
	// version is the catalog version the plan was compiled against; any
	// DDL or model store bumps it, invalidating the plan.
	version uint64
	// tables lists every table the bound plan scans, before optimization
	// can eliminate a join.
	// The result cache snapshots their data versions around execution;
	// the plan cache itself doesn't need them (plans survive appends —
	// results don't).
	tables []*storage.Table
}

// defaultPlanCacheSize bounds the engine-level plan cache (DB.plans): a
// rescache.Cache keyed by (SQL text, options fingerprint) and validated
// at lookup against the catalog version. It is what makes prepare-once/
// execute-many and warm repeated queries skip parse/bind/optimize — the
// session-state amortization the paper credits for its warm-run speedups
// (§5 observation ii), applied to plans. Entries are a few KB (an
// optimized IR graph) and each is charged one unit, so the LRU evicts by
// count; recency matters because ad-hoc statements with inline literals
// each occupy their own key, and without it their churn would evict hot
// repeated statements at random.
const defaultPlanCacheSize = 256

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
	db.plans.Sweep(func(p *cachedPlan) bool { return p.version == current })
	if db.results != nil {
		db.results.Sweep(func(e *resultEntry) bool { return e.version == current })
	}
}

// planCacheInfo reshapes the cache counters for DB.Stats / the /stats
// endpoint under the field names PlanCacheInfo has always had.
func (db *DB) planCacheInfo() PlanCacheInfo {
	s := db.plans.Stats()
	return PlanCacheInfo{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
		Size:          s.Entries,
		Capacity:      int(s.MaxBytes),
	}
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
	plan.Walk(n, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && !seen[s.Table] {
			seen[s.Table] = true
			out = append(out, s.Table)
		}
	})
	return out
}
