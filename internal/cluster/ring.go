// Package cluster scales the multi-tenant serving layer horizontally: a
// consistent-hash ring places every tenant on exactly one node, each node
// health-checks its peers, and a routing middleware in front of the
// serving mux forwards requests for non-owned tenants to their owner
// (bounded retries, a single hedge on slow peers). When membership
// changes — a node joins, leaves, or dies — the ring is rebuilt and
// swapped atomically, and each node drains the tenants it no longer owns
// through the registry's store-persistence path, so the new owner revives
// them with the adapted τ, model version, and index configuration intact.
//
// The pieces:
//
//   - Ring: an immutable consistent-hash ring with virtual nodes.
//     Placement is deterministic in the member set alone, so every node
//     computes the same owner for every tenant without coordination.
//   - Node: membership, health checking, request routing, and tenant
//     handoff around one serving process (node.go). Nodes speak the
//     serving API's own HTTP and JSON: a forward re-posts the client's
//     body to the same route on the owner, marked by cluster headers,
//     and a health probe reads a JSON PeerStatus.
//   - Harness: an in-process N-node cluster used by the end-to-end
//     failover tests and `loadgen -scenario cluster` (harness.go).
package cluster

import (
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring: each member contributes
// vnodes virtual points, and a tenant is owned by the member whose point
// follows the tenant's hash clockwise. Immutability is what keeps the
// serving hot path lock-free — routers load the current ring through an
// atomic pointer and never see a ring mid-rebuild.
type Ring struct {
	version uint64
	members []string // sorted, unique
	vnodes  int
	points  []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the ring owned by a member.
type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// DefaultVNodes is the virtual-node count used when a configuration
// leaves it zero: high enough that load spread stays within a few tens of
// percent (see TestRingBalance), low enough that rebuilds stay cheap.
const DefaultVNodes = 128

// BuildRing constructs a ring over members (order-insensitive;
// duplicates collapse). version tags the ring for status reporting and
// staleness checks; an empty member set yields a ring that owns nothing.
func BuildRing(version uint64, members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		version: version,
		members: uniq,
		vnodes:  vnodes,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, v)),
				member: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by member index so placement
		// stays deterministic in the member set.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// Owner reports which member owns tenant, or "" on an empty ring.
func (r *Ring) Owner(tenant string) string {
	return r.OwnerHash(Hash(tenant))
}

// Hash exposes the ring's placement hash so callers that resolve the
// same tenant repeatedly (the simulation's million-tenant sweeps) can
// hash once and use OwnerHash per lookup.
func Hash(tenant string) uint64 { return hash64(tenant) }

// OwnerHash is Owner for a tenant hash precomputed with Hash.
func (r *Ring) OwnerHash(h uint64) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.members[r.points[i].member]
}

// Version reports the ring's membership-change counter.
func (r *Ring) Version() uint64 {
	if r == nil {
		return 0
	}
	return r.version
}

// Members returns the ring's member set (sorted; do not mutate).
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return r.members
}

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// VNodes reports the virtual-node count per member.
func (r *Ring) VNodes() int {
	if r == nil {
		return 0
	}
	return r.vnodes
}

// hash64 is FNV-1a with a murmur3-style finalizer. Raw FNV avalanches
// poorly for near-identical keys — vnode keys differ only in their
// trailing "#i", which left ring points clustered and load spread far
// from uniform; the finalizer fixes that. Placement only needs a stable,
// well-mixed hash — and it must never change across versions, or a
// rolling upgrade would remap every tenant.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
