package netnode

import (
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// nodeCounters are the node's event counters: the degradations its
// fault-tolerant paths take, overload control, membership churn,
// migration, and digest maintenance. Every event has exactly one
// increment site, on one of these. They live in the telemetry registry
// when the node has one and in a private registry nothing scrapes
// otherwise, so Robustness and DigestStats read the very counters
// /metrics exposes.
type nodeCounters struct {
	peerFailures  *obs.Counter // eac_peer_failures_total
	retries       *obs.Counter // eac_retries_total
	fallbacks     *obs.Counter // eac_fallbacks_total
	breakerOpens  *obs.Counter // eac_breaker_opens_total
	breakerCloses *obs.Counter // eac_breaker_closes_total
	wireClamps    *obs.Counter // eac_wire_age_clamps_total
	traceClamps   *obs.Counter // eac_trace_context_clamps_total

	coalescedFollowers *obs.Counter // eac_coalesced_followers_total
	leaderInitial      *obs.Counter // eac_coalesce_leader_elections_total{kind="initial"}
	leaderRetry        *obs.Counter // eac_coalesce_leader_elections_total{kind="retry"}
	sheds              *obs.Counter // eac_requests_shed_total
	upstreamWaits      *obs.Counter // eac_origin_sem_waits_total

	memEvents  [memCount]*obs.Counter // eac_membership_events_total{event}
	migrations [mrCount]*obs.Counter  // eac_migration_docs_total{result}
	migrBytes  *obs.Counter           // eac_migration_bytes_total

	// Digest transfers are indexed by digestSyncFull/digestSyncDelta.
	digestServed   [2]*obs.Counter // eac_digest_transfers_total{kind,dir="served"}
	digestApplied  [2]*obs.Counter // eac_digest_transfers_total{kind,dir="applied"}
	digestBytes    [2]*obs.Counter // eac_digest_bytes_total{kind}
	digestRebuilds *obs.Counter    // eac_digest_rebuild_escapes_total
	digestStale    *obs.Counter    // eac_digest_stale_served_total
	digestFetches  *obs.Counter    // eac_digest_fetches_total
	digestFetchErr *obs.Counter    // eac_digest_fetch_failures_total
}

// Membership event indexes on eac_membership_events_total.
const (
	memEjection = iota
	memReadmission
	memCount
)

var memEventNames = [memCount]string{"ejection", "readmission"}

// newNodeCounters registers the node's event counters in r.
func newNodeCounters(r *obs.Registry) nodeCounters {
	var c nodeCounters
	c.peerFailures = r.Counter("eac_peer_failures_total",
		"Failed peer exchanges: ICP silences on timed-out fan-outs, failed dials, and fetches that broke mid-body.", nil)
	c.retries = r.Counter("eac_retries_total",
		"Extra attempts after a failure: the next hit responder, or a repeated parent/origin fetch.", nil)
	c.fallbacks = r.Counter("eac_fallbacks_total",
		"Requests that abandoned the cooperative path or a broken parent and degraded to the parent/origin.", nil)
	c.breakerOpens = r.Counter("eac_breaker_opens_total",
		"Peer circuit breakers that opened (peer marked dead).", nil)
	c.breakerCloses = r.Counter("eac_breaker_closes_total",
		"Dead peers whose breaker closed again after a successful probe.", nil)
	c.wireClamps = r.Counter("eac_wire_age_clamps_total",
		"Piggybacked expiration ages that arrived negative or overflowing and were clamped.", nil)
	c.traceClamps = r.Counter("eac_trace_context_clamps_total",
		"Malformed or hop-exhausted X-Trace-Context values dropped instead of propagated.", nil)

	c.coalescedFollowers = r.Counter("eac_coalesced_followers_total",
		"Requests served as single-flight followers of a concurrent miss for the same URL.", nil)
	c.leaderInitial = r.Counter("eac_coalesce_leader_elections_total",
		"Single-flight leader elections, by kind (initial epoch vs post-failure retry).",
		obs.Labels{"kind": "initial"})
	c.leaderRetry = r.Counter("eac_coalesce_leader_elections_total",
		"Single-flight leader elections, by kind (initial epoch vs post-failure retry).",
		obs.Labels{"kind": "retry"})
	c.sheds = r.Counter("eac_requests_shed_total",
		"Requests refused at the front door because the in-flight bound and queue-wait budget were exceeded.", nil)
	c.upstreamWaits = r.Counter("eac_origin_sem_waits_total",
		"Upstream fetches that found the origin-concurrency semaphore full and queued.", nil)

	for idx, ev := range memEventNames {
		c.memEvents[idx] = r.Counter("eac_membership_events_total",
			"Breaker-driven membership changes (grace-window ejections and probe readmissions).",
			obs.Labels{"event": ev})
	}
	for idx, res := range migrateResultNames {
		c.migrations[idx] = r.Counter("eac_migration_docs_total",
			"Documents processed by migration passes, by per-document result.",
			obs.Labels{"result": res})
	}
	c.migrBytes = r.Counter("eac_migration_bytes_total",
		"Body bytes transferred by migration handoffs.", nil)

	for idx, kind := range [2]string{digestSyncFull: "full", digestSyncDelta: "delta"} {
		c.digestServed[idx] = r.Counter("eac_digest_transfers_total",
			"Digest transfers, by kind (full filter vs generation delta) and direction.",
			obs.Labels{"kind": kind, "dir": "served"})
		c.digestApplied[idx] = r.Counter("eac_digest_transfers_total",
			"Digest transfers, by kind (full filter vs generation delta) and direction.",
			obs.Labels{"kind": kind, "dir": "applied"})
		c.digestBytes[idx] = r.Counter("eac_digest_bytes_total",
			"Digest body bytes served, by transfer kind.",
			obs.Labels{"kind": kind})
	}
	c.digestRebuilds = r.Counter("eac_digest_rebuild_escapes_total",
		"Full-URL-scan digest rebuilds via the counter-saturation escape hatch (steady state: 0).", nil)
	c.digestStale = r.Counter("eac_digest_stale_served_total",
		"Lookups answered from a stale peer digest while a background refresh was in flight.", nil)
	c.digestFetches = r.Counter("eac_digest_fetches_total",
		"Peer digest fetches dialled (single-flight per peer).", nil)
	c.digestFetchErr = r.Counter("eac_digest_fetch_failures_total",
		"Peer digest fetches that dialled but failed.", nil)
	return c
}

// Robustness returns the node's degradation counters: peer failures,
// retries, fallbacks to parent/origin, breaker transitions, overload
// control, and membership churn.
func (n *Node) Robustness() metrics.RobustnessSnapshot {
	c := &n.ctr
	leaderRetries := c.leaderRetry.Value()
	return metrics.RobustnessSnapshot{
		PeerFailures:  c.peerFailures.Value(),
		Retries:       c.retries.Value(),
		Fallbacks:     c.fallbacks.Value(),
		BreakerOpens:  c.breakerOpens.Value(),
		BreakerCloses: c.breakerCloses.Value(),
		WireClamps:    c.wireClamps.Value(),
		TraceClamps:   c.traceClamps.Value(),

		CoalescedFollowers: c.coalescedFollowers.Value(),
		LeaderElections:    c.leaderInitial.Value() + leaderRetries,
		LeaderRetries:      leaderRetries,
		Sheds:              c.sheds.Value(),
		OriginWaits:        c.upstreamWaits.Value(),

		Ejections:         c.memEvents[memEjection].Value(),
		Readmissions:      c.memEvents[memReadmission].Value(),
		MigratedDocs:      c.migrations[mrTransferred].Value(),
		MigratedBytes:     c.migrBytes.Value(),
		MigrationFailures: c.migrations[mrFailed].Value(),
	}
}

// DigestStats exposes the digest traffic counters.
func (n *Node) DigestStats() metrics.DigestSnapshot {
	c := &n.ctr
	return metrics.DigestSnapshot{
		DeltasServed:     c.digestServed[digestSyncDelta].Value(),
		FullsServed:      c.digestServed[digestSyncFull].Value(),
		DeltasApplied:    c.digestApplied[digestSyncDelta].Value(),
		FullsApplied:     c.digestApplied[digestSyncFull].Value(),
		DeltaBytesServed: c.digestBytes[digestSyncDelta].Value(),
		FullBytesServed:  c.digestBytes[digestSyncFull].Value(),
		RebuildEscapes:   c.digestRebuilds.Value(),
		StaleServed:      c.digestStale.Value(),
		Fetches:          c.digestFetches.Value(),
		FetchFailures:    c.digestFetchErr.Value(),
	}
}
