// Package cluster turns N ravenserved replicas into one serving
// endpoint: a health-checked, statement-aware router that speaks the
// same wire protocol as a single replica (internal/server), so the same
// client works against either.
//
// The pieces:
//
//   - ring.go: rendezvous (highest-random-weight) hashing gives every
//     tenant a stable home replica, keeping that replica's result cache
//     and statement registry warm for the tenant's query shapes, with a
//     deterministic retry order when the home refuses or is down.
//   - member.go: replica membership. A reconciler loop probes each member's
//     /healthz on a jittered interval and converges the desired member
//     set (what the operator registered) with the actual one (what is
//     reachable, current, and accepting).
//   - replicate.go: the ordered side-effect log. DDL scripts and stored
//     models fan out to all members with catalog-version read-back;
//     members that miss entries (crash, restart, network) are repaired
//     by replaying the log before they take traffic again.
//   - router.go: the data plane — a streaming proxy on the replica's
//     routes, decoding bodies and X-Raven-* headers with
//     internal/server's code and forwarding every request-option
//     header, with per-replica retry (exponential backoff + jitter) and
//     router-side prepared statements lazily prepared per replica. A
//     replica's own admission is the one place load is shed: its 429 is
//     retried on the next replica in rank order. Its tuning is
//     constants, not options.
//
// The router caches no results: a repeated read is answered by the home
// replica's own engine result cache (raven.WithResultCache), which
// affinity keeps warm and the replica's catalog version keeps fresh.
package cluster

import (
	"hash/fnv"
	"sort"
)

// rankMembers orders member names by rendezvous (HRW) score for a
// tenant, highest first: index 0 is the tenant's home replica, the rest
// the deterministic retry order. Rendezvous hashing gives minimal
// disruption — adding or removing one member only moves the tenants
// whose top choice changed, so the other replicas' result caches and
// statement registries stay warm.
func rankMembers(tenant string, names []string) []string {
	ranked := make([]string, len(names))
	copy(ranked, names)
	scores := make(map[string]uint64, len(names))
	for _, n := range ranked {
		scores[n] = hrwScore(tenant, n)
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i]], scores[ranked[j]]
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j] // total order even on score ties
	})
	return ranked
}

// hrwScore hashes (tenant, member) into the weight the member bids for
// the tenant: the two FNV-1a hashes combined through a strong finalizer
// (splitmix64). Hashing the concatenation instead would correlate the
// member ordering across tenants — FNV's per-byte mixing is too weak to
// decorrelate a shared suffix — and skew every tenant onto the same few
// members.
func hrwScore(tenant, member string) uint64 {
	x := fnvSum(member) ^ (fnvSum(tenant) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func fnvSum(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
