package metrics

// RobustnessSnapshot is a live node's degradation counters at one moment:
// the failures the fault-tolerant fetch path survived, overload control,
// and membership churn. Each field is read from the node's telemetry
// registry, where it is also scraped; the set is not a transaction.
type RobustnessSnapshot struct {
	// PeerFailures: ICP silences on timed-out fan-outs, failed dials,
	// and fetches that broke mid-body.
	PeerFailures int64
	// Retries: extra attempts after a failure (the next hit responder, or
	// a repeated parent/origin fetch).
	Retries int64
	// Fallbacks: requests that abandoned the cooperative path or a broken
	// parent and degraded to the parent/origin.
	Fallbacks     int64
	BreakerOpens  int64
	BreakerCloses int64
	// WireClamps: piggybacked expiration ages that arrived negative or
	// overflowing and were clamped instead of trusted.
	WireClamps int64
	// TraceClamps: malformed or hop-exhausted X-Trace-Context values
	// dropped instead of propagated.
	TraceClamps int64

	CoalescedFollowers int64
	// LeaderElections counts every single-flight election, initial and
	// retry; LeaderRetries only those replacing a failed leader.
	LeaderElections int64
	LeaderRetries   int64
	Sheds           int64
	// OriginWaits: upstream fetches that found the origin semaphore full
	// and queued, whether or not they got a slot in time.
	OriginWaits int64

	Ejections         int64
	Readmissions      int64
	MigratedDocs      int64
	MigratedBytes     int64
	MigrationFailures int64
}

// DigestSnapshot is a live node's digest-maintenance traffic at one
// moment: the work the incremental counting-filter and delta-sync path is
// supposed to shrink.
type DigestSnapshot struct {
	DeltasServed     int64 `json:"deltas_served"`
	FullsServed      int64 `json:"fulls_served"`
	DeltasApplied    int64 `json:"deltas_applied"`
	FullsApplied     int64 `json:"fulls_applied"`
	DeltaBytesServed int64 `json:"delta_bytes_served"`
	FullBytesServed  int64 `json:"full_bytes_served"`
	// RebuildEscapes: full-URL-scan rebuilds of the own digest after
	// counter saturation. Steady state must never move it.
	RebuildEscapes int64 `json:"rebuild_escapes"`
	StaleServed    int64 `json:"stale_served"`
	// Fetches: digest fetches dialled to peers (single-flight, so a miss
	// herd on a cold peer digest counts 1).
	Fetches       int64 `json:"fetches"`
	FetchFailures int64 `json:"fetch_failures"`
}
