package netnode

import (
	"math"
	"time"

	"eacache/internal/cache"
	"eacache/internal/health"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// Stage indexes for the request lifecycle. The hot path indexes plain
// arrays with these instead of hashing stage-name strings: the request
// path runs with cold caches, where a map lookup costs several times an
// array index.
const (
	stLocalLookup = iota
	stICPFanout
	stDigestScan
	stRemoteFetch
	stParentFetch
	stOriginFetch
	stageCount
)

var stageNames = [stageCount]string{
	obs.StageLocalLookup, obs.StageICPFanout, obs.StageDigestScan,
	obs.StageRemoteFetch, obs.StageParentFetch, obs.StageOriginFetch,
}

// Placement-decision roles on the eac_placement_decisions_total counter:
// the requester-side store rule, the responder-side promote rule, and the
// parent's §3.3 keep-a-copy rule.
const (
	roleRequester = iota
	roleResponder
	roleParent
	roleCount
)

var roleNames = [roleCount]string{"requester", "responder", "parent"}

// Decision indexes matching the obs.Decision* labels.
const (
	decisionAccept = iota
	decisionReject
	decisionPromote
	decisionCount
)

var decisionNames = [decisionCount]string{
	obs.DecisionAccept, obs.DecisionReject, obs.DecisionPromote,
}

// Request-outcome indexes: the three metrics.Outcome values (shifted to
// zero base) plus a terminal-error bucket.
const (
	ocLocalHit = iota
	ocRemoteHit
	ocMiss
	ocError
	outcomeCount
)

// outcomeError is the label for requests that ended in a terminal error.
const outcomeError = "error"

var outcomeNames = [outcomeCount]string{
	metrics.LocalHit.String(), metrics.RemoteHit.String(),
	metrics.Miss.String(), outcomeError,
}

func outcomeIndex(res Result, err error) int {
	if err != nil {
		return ocError
	}
	if idx := int(res.Outcome) - 1; idx >= ocLocalHit && idx <= ocMiss {
		return idx
	}
	return ocError
}

// decisionOf maps a placement scheme's store verdict to the decision index.
func decisionOf(store bool) int {
	if store {
		return decisionAccept
	}
	return decisionReject
}

// nodeObs caches the node's instruments in flat arrays so the request
// path records with array indexes and plain atomic adds — no registry
// lock, no map hashing. A nil *nodeObs is inert: every method starts with
// a nil check, so a node built without telemetry pays one pointer test
// per call site.
type nodeObs struct {
	tel *obs.Telemetry

	requests [outcomeCount]*obs.Counter   // eac_requests_total{outcome}
	bytes    [outcomeCount]*obs.Counter   // eac_bytes_served_total{outcome}
	reqDur   [outcomeCount]*obs.Histogram // eac_request_duration_seconds{outcome}
	stageDur [stageCount]*obs.Histogram   // eac_stage_duration_seconds{stage}
	// decisions holds only the meaningful (role, decision) pairs; the
	// rest stay nil and are skipped.
	decisions [roleCount][decisionCount]*obs.Counter

	icpReplies *obs.Counter
	icpSilent  *obs.Counter
	icpSendErr *obs.Counter

	events []*obs.Counter // indexed by cache.EventKind

	checkpoints   *obs.Counter
	checkpointErr *obs.Counter
	checkpointDur *obs.Histogram

	coalescedFollowers *obs.Counter   // eac_coalesced_followers_total
	leaderInitial      *obs.Counter   // eac_coalesce_leader_elections_total{kind="initial"}
	leaderRetry        *obs.Counter   // eac_coalesce_leader_elections_total{kind="retry"}
	sheds              *obs.Counter   // eac_requests_shed_total
	fetchDials         *obs.Counter   // eac_fetch_dials_total
	fetchReuses        *obs.Counter   // eac_fetch_reuses_total
	upstreamWaits      *obs.Counter   // eac_origin_sem_waits_total
	upstreamWaitDur    *obs.Histogram // eac_origin_sem_wait_seconds

	migrations  [mrCount]*obs.Counter  // eac_migration_docs_total{result}
	migrBytes   *obs.Counter           // eac_migration_bytes_total
	memEvents   [memCount]*obs.Counter // eac_membership_events_total{event}
	pushStored  *obs.Counter           // eac_pushes_received_total{decision="stored"}
	pushRefused *obs.Counter           // eac_pushes_received_total{decision="refused"}

	// Digest maintenance (digestmode.go): transfers indexed by
	// digestSyncFull/digestSyncDelta.
	digestServedN  [2]*obs.Counter // eac_digest_transfers_total{kind,dir="served"}
	digestAppliedN [2]*obs.Counter // eac_digest_transfers_total{kind,dir="applied"}
	digestBytesN   [2]*obs.Counter // eac_digest_bytes_total{kind}
	digestRebuilds *obs.Counter    // eac_digest_rebuild_escapes_total
	digestStale    *obs.Counter    // eac_digest_stale_served_total
	digestFetchErr *obs.Counter    // eac_digest_fetch_failures_total
}

// Membership event indexes on eac_membership_events_total.
const (
	memEjection = iota
	memReadmission
	memCount
)

var memEventNames = [memCount]string{"ejection", "readmission"}

// newNodeObs registers the node's metric families and returns the cached
// instruments. The gauge funcs close over n and are evaluated at scrape
// time, so the exposed values are always current.
func newNodeObs(n *Node, tel *obs.Telemetry) *nodeObs {
	if tel == nil {
		return nil
	}
	r := tel.Registry
	o := &nodeObs{tel: tel}

	for idx, oc := range outcomeNames {
		l := obs.Labels{"outcome": oc}
		o.requests[idx] = r.Counter("eac_requests_total",
			"Requests served, by final outcome.", l)
		o.bytes[idx] = r.Counter("eac_bytes_served_total",
			"Body bytes served to clients, by final outcome.", l)
		o.reqDur[idx] = r.Histogram("eac_request_duration_seconds",
			"End-to-end request latency, by final outcome.", l, nil)
	}
	for idx, st := range stageNames {
		o.stageDur[idx] = r.Histogram("eac_stage_duration_seconds",
			"Per-stage latency of the request lifecycle.",
			obs.Labels{"stage": st}, nil)
	}
	for _, rd := range [][2]int{
		{roleRequester, decisionAccept}, {roleRequester, decisionReject},
		{roleResponder, decisionPromote}, {roleResponder, decisionReject},
		{roleParent, decisionAccept}, {roleParent, decisionReject},
	} {
		o.decisions[rd[0]][rd[1]] = r.Counter("eac_placement_decisions_total",
			"EA placement decisions, by deciding role and outcome.",
			obs.Labels{"role": roleNames[rd[0]], "decision": decisionNames[rd[1]]})
	}

	o.icpReplies = r.Counter("eac_icp_replies_total",
		"ICP replies heard across all fan-outs.", nil)
	o.icpSilent = r.Counter("eac_icp_silent_peers_total",
		"Peers that stayed silent through a full ICP timeout.", nil)
	o.icpSendErr = r.Counter("eac_icp_send_failures_total",
		"ICP queries that could not be sent.", nil)

	kinds := []cache.EventKind{
		cache.EventInsert, cache.EventHit, cache.EventPromote,
		cache.EventEvict, cache.EventRemove,
		cache.EventDemote, cache.EventPromoteFromDisk,
	}
	max := 0
	for _, k := range kinds {
		if int(k) > max {
			max = int(k)
		}
	}
	o.events = make([]*obs.Counter, max+1)
	for _, k := range kinds {
		o.events[k] = r.Counter("eac_cache_events_total",
			"Cache mutations by kind (with persistence on, every event is one journal record).",
			obs.Labels{"kind": k.String()})
	}

	o.checkpoints = r.Counter("eac_checkpoints_total",
		"Completed snapshot+journal-rotation checkpoints.", nil)
	o.checkpointErr = r.Counter("eac_checkpoint_failures_total",
		"Checkpoints that failed.", nil)
	o.checkpointDur = r.Histogram("eac_checkpoint_duration_seconds",
		"Checkpoint (capture + rotate + snapshot write) duration.", nil, nil)

	o.coalescedFollowers = r.Counter("eac_coalesced_followers_total",
		"Requests served as single-flight followers of a concurrent miss for the same URL.", nil)
	o.leaderInitial = r.Counter("eac_coalesce_leader_elections_total",
		"Single-flight leader elections, by kind (initial epoch vs post-failure retry).",
		obs.Labels{"kind": "initial"})
	o.leaderRetry = r.Counter("eac_coalesce_leader_elections_total",
		"Single-flight leader elections, by kind (initial epoch vs post-failure retry).",
		obs.Labels{"kind": "retry"})
	o.sheds = r.Counter("eac_requests_shed_total",
		"Requests refused at the front door because the in-flight bound and queue-wait budget were exceeded.", nil)
	o.fetchDials = r.Counter("eac_fetch_dials_total",
		"TCP connections dialled for outbound fetches (peers, parent, origin).", nil)
	o.fetchReuses = r.Counter("eac_fetch_reuses_total",
		"Outbound fetch exchanges started on a pooled keep-alive connection.", nil)
	o.upstreamWaits = r.Counter("eac_origin_sem_waits_total",
		"Upstream fetches that found the origin-concurrency semaphore full and queued.", nil)
	o.upstreamWaitDur = r.Histogram("eac_origin_sem_wait_seconds",
		"Time contended upstream fetches waited for an origin-semaphore slot.", nil, nil)

	for idx, res := range migrateResultNames {
		o.migrations[idx] = r.Counter("eac_migration_docs_total",
			"Documents processed by migration passes, by per-document result.",
			obs.Labels{"result": res})
	}
	o.migrBytes = r.Counter("eac_migration_bytes_total",
		"Body bytes transferred by migration handoffs.", nil)
	for idx, ev := range memEventNames {
		o.memEvents[idx] = r.Counter("eac_membership_events_total",
			"Breaker-driven membership changes (grace-window ejections and probe readmissions).",
			obs.Labels{"event": ev})
	}
	o.pushStored = r.Counter("eac_pushes_received_total",
		"Migration handoffs received, by whether the copy was stored.",
		obs.Labels{"decision": "stored"})
	o.pushRefused = r.Counter("eac_pushes_received_total",
		"Migration handoffs received, by whether the copy was stored.",
		obs.Labels{"decision": "refused"})

	for idx, kind := range [2]string{digestSyncFull: "full", digestSyncDelta: "delta"} {
		o.digestServedN[idx] = r.Counter("eac_digest_transfers_total",
			"Digest transfers, by kind (full filter vs generation delta) and direction.",
			obs.Labels{"kind": kind, "dir": "served"})
		o.digestAppliedN[idx] = r.Counter("eac_digest_transfers_total",
			"Digest transfers, by kind (full filter vs generation delta) and direction.",
			obs.Labels{"kind": kind, "dir": "applied"})
		o.digestBytesN[idx] = r.Counter("eac_digest_bytes_total",
			"Digest body bytes served, by transfer kind.",
			obs.Labels{"kind": kind})
	}
	o.digestRebuilds = r.Counter("eac_digest_rebuild_escapes_total",
		"Full-URL-scan digest rebuilds via the counter-saturation escape hatch (steady state: 0).", nil)
	o.digestStale = r.Counter("eac_digest_stale_served_total",
		"Lookups answered from a stale peer digest while a background refresh was in flight.", nil)
	o.digestFetchErr = r.Counter("eac_digest_fetch_failures_total",
		"Peer digest fetches that dialled but failed.", nil)
	r.GaugeFunc("eac_digest_generation",
		"Generation of this node's own advertised digest (0 when digests are off).",
		nil, func() float64 {
			if n.digests == nil {
				return 0
			}
			n.digestMu.Lock()
			g := n.digests.own.Generation()
			n.digestMu.Unlock()
			return float64(g)
		})

	r.GaugeFunc("eac_membership_epoch",
		"Membership revision: bumped by every join, leave, ejection, and readmission.",
		nil, func() float64 { return float64(n.epoch.Load()) })
	r.GaugeFunc("eac_membership_active_peers",
		"Peers currently in the locator set (configured members minus ejected ones).",
		nil, func() float64 { return float64(len(n.peerList())) })
	r.GaugeFunc("eac_node_draining",
		"1 once DrainHandoff has begun (the node keeps no new copies).",
		nil, func() float64 {
			if n.draining.Load() {
				return 1
			}
			return 0
		})

	r.GaugeFunc("eac_inflight_requests",
		"Requests currently inside the front door (0 when shedding is disabled).",
		nil, func() float64 {
			if n.inflight == nil {
				return 0
			}
			return float64(len(n.inflight))
		})
	r.GaugeFunc("eac_origin_sem_inuse",
		"Origin-semaphore slots currently held by upstream fetches.",
		nil, func() float64 { return float64(len(n.originSem)) })

	r.GaugeFunc("eac_cache_expiration_age_seconds",
		"Current cache expiration age, the EA scheme's contention signal (+Inf = no contention yet).",
		nil, func() float64 {
			age := n.ExpirationAge()
			if age == cache.NoContention {
				return math.Inf(1)
			}
			return age.Seconds()
		})
	r.GaugeFunc("eac_cache_documents", "Resident documents.", nil, func() float64 {
		return float64(n.store.Len())
	})
	r.GaugeFunc("eac_cache_bytes", "Resident bytes.", nil, func() float64 {
		return float64(n.store.Used())
	})
	r.GaugeFunc("eac_cache_evictions", "Documents evicted by the replacement policy.",
		nil, func() float64 {
			return float64(n.store.Evictions())
		})

	// Tier occupancy and movement (eac_tier_*). Registered unconditionally:
	// an untiered node scrapes zeros for the disk series, so dashboards stay
	// stable across configurations.
	r.GaugeFunc("eac_tier_documents", "Resident documents, by storage tier.",
		obs.Labels{"tier": "memory"}, func() float64 { return float64(n.store.MemLen()) })
	r.GaugeFunc("eac_tier_documents", "Resident documents, by storage tier.",
		obs.Labels{"tier": "disk"}, func() float64 { return float64(n.store.DiskLen()) })
	r.GaugeFunc("eac_tier_bytes", "Resident bytes, by storage tier.",
		obs.Labels{"tier": "memory"}, func() float64 { return float64(n.store.MemUsed()) })
	r.GaugeFunc("eac_tier_bytes", "Resident bytes, by storage tier.",
		obs.Labels{"tier": "disk"}, func() float64 { return float64(n.store.DiskUsed()) })
	r.GaugeFunc("eac_tier_capacity_bytes", "Byte budget, by storage tier.",
		obs.Labels{"tier": "memory"}, func() float64 { return float64(n.store.MemCapacity()) })
	r.GaugeFunc("eac_tier_capacity_bytes", "Byte budget, by storage tier.",
		obs.Labels{"tier": "disk"}, func() float64 { return float64(n.store.DiskCapacity()) })
	r.GaugeFunc("eac_tier_demotions",
		"Memory victims moved to the disk tier instead of exiting.",
		nil, func() float64 { return float64(n.store.TierCounters().Demotions) })
	r.GaugeFunc("eac_tier_demotion_drops",
		"Memory victims the demotion rule dropped (past the disk tier's expiration age, or the tier refused them).",
		nil, func() float64 { return float64(n.store.TierCounters().DemotionDrops) })
	r.GaugeFunc("eac_tier_promotions",
		"Disk hits re-promoted into the memory tier.",
		nil, func() float64 { return float64(n.store.TierCounters().Promotions) })
	r.GaugeFunc("eac_tier_disk_evictions",
		"Documents the disk tier evicted (true exits from the node).",
		nil, func() float64 { return float64(n.store.TierCounters().DiskEvictions) })
	r.GaugeFunc("eac_tier_checksum_failures",
		"Blobs that failed checksum verification (each is dropped and the document refetched).",
		nil, func() float64 { return float64(n.store.TierCounters().ChecksumFailures) })
	return o
}

// registerPeerGauges (re-)registers the per-neighbour breaker gauges;
// every membership publish calls it so the scrape always covers the
// current member set (including ejected members, whose recovery is what
// operators watch for). Alongside the packed state value, each state
// gets a one-hot series and the last transition is exposed as an age —
// together they answer "which peers flapped, and when" straight from
// the scrape.
func (o *nodeObs) registerPeerGauges(n *Node, peers []Peer) {
	if o == nil {
		return
	}
	r := o.tel.Registry
	for _, p := range peers {
		addr := p.HTTP
		r.GaugeFunc("eac_peer_breaker_state",
			"Per-peer circuit-breaker state: 0 healthy, 1 suspect, 2 dead.",
			obs.Labels{"peer": addr},
			func() float64 { return float64(n.health.State(addr)) })
		for _, st := range []health.State{health.Healthy, health.Suspect, health.Dead} {
			st := st
			r.GaugeFunc("eac_peer_state",
				"Per-peer breaker state, one-hot by state label.",
				obs.Labels{"peer": addr, "state": st.String()},
				func() float64 {
					if n.health.State(addr) == st {
						return 1
					}
					return 0
				})
		}
		r.GaugeFunc("eac_peer_last_transition_seconds",
			"Seconds since the peer's last breaker transition (0 = never transitioned).",
			obs.Labels{"peer": addr},
			func() float64 {
				st := n.health.Status(addr)
				if st.Since.IsZero() {
					return 0
				}
				return time.Since(st.Since).Seconds()
			})
	}
}

// migration counts one migrated document's per-document result.
func (o *nodeObs) migration(result int, bytes int64) {
	if o == nil {
		return
	}
	o.migrations[result].Inc()
	if bytes > 0 {
		o.migrBytes.Add(bytes)
	}
}

// membershipEvent counts one ejection or readmission.
func (o *nodeObs) membershipEvent(ev int) {
	if o == nil {
		return
	}
	o.memEvents[ev].Inc()
}

// pushReceived counts one inbound migration handoff.
func (o *nodeObs) pushReceived(stored bool) {
	if o == nil {
		return
	}
	if stored {
		o.pushStored.Inc()
	} else {
		o.pushRefused.Inc()
	}
}

// setRecovery exposes what the last warm restart found on disk.
func (o *nodeObs) setRecovery(rep RecoveryReport) {
	if o == nil {
		return
	}
	r := o.tel.Registry
	set := func(name, help string, v float64) {
		r.Gauge(name, help, nil).Set(v)
	}
	set("eac_recovery_journal_records", "Journal records replayed at the last recovery.",
		float64(rep.JournalRecords))
	set("eac_recovery_discarded_bytes", "Corrupt journal bytes discarded at the last recovery.",
		float64(rep.DiscardedBytes))
	set("eac_recovery_restored_documents", "Documents restored into the store at the last recovery.",
		float64(rep.Restored.Entries))
	set("eac_recovery_skipped_documents", "Recovered documents skipped because they no longer fit.",
		float64(rep.Restored.Skipped))
	set("eac_recovery_disk_documents", "Disk-tier documents whose residency survived the last recovery.",
		float64(rep.Restored.DiskRestored))
	set("eac_recovery_disk_lost", "Disk-tier residency claims lost at the last recovery (blob missing or stale).",
		float64(rep.Restored.DiskLost))
}

// observeRequest records the end-to-end outcome of one Request call.
func (o *nodeObs) observeRequest(res Result, err error, dur time.Duration) {
	if o == nil {
		return
	}
	idx := outcomeIndex(res, err)
	o.requests[idx].Inc()
	o.bytes[idx].Add(res.Size)
	o.reqDur[idx].ObserveDuration(dur)
}

// observeFanout records one ICP fan-out's per-peer evidence.
func (o *nodeObs) observeFanout(replies, silent, sendFailed int) {
	if o == nil {
		return
	}
	o.icpReplies.Add(int64(replies))
	o.icpSilent.Add(int64(silent))
	o.icpSendErr.Add(int64(sendFailed))
}

// decision counts one EA placement decision.
func (o *nodeObs) decision(role, decision int) {
	if o == nil {
		return
	}
	if c := o.decisions[role][decision]; c != nil {
		c.Inc()
	}
}

// cacheEvent is the store's telemetry event sink (chained after the
// persistence sink when both are on).
func (o *nodeObs) cacheEvent(ev cache.Event) {
	if o == nil {
		return
	}
	if int(ev.Kind) < len(o.events) {
		if c := o.events[ev.Kind]; c != nil {
			c.Inc()
		}
	}
}

// digestServed counts one digest transfer answered for a peer, by kind
// (digestSyncFull or digestSyncDelta) and body size.
func (o *nodeObs) digestServed(kind, bytes int) {
	if o == nil {
		return
	}
	o.digestServedN[kind].Inc()
	o.digestBytesN[kind].Add(int64(bytes))
}

// digestApplied counts one transfer applied to a peer-digest replica.
func (o *nodeObs) digestApplied(kind int) {
	if o == nil {
		return
	}
	o.digestAppliedN[kind].Inc()
}

// digestStaleServed counts one lookup answered from a stale replica
// while a background refresh ran.
func (o *nodeObs) digestStaleServed() {
	if o == nil {
		return
	}
	o.digestStale.Inc()
}

// digestFetchFailure counts one failed peer digest fetch.
func (o *nodeObs) digestFetchFailure() {
	if o == nil {
		return
	}
	o.digestFetchErr.Inc()
}

// digestRebuildEscape counts one counter-saturation full rebuild.
func (o *nodeObs) digestRebuildEscape() {
	if o == nil {
		return
	}
	o.digestRebuilds.Inc()
}

// coalesced counts one request served as a single-flight follower.
func (o *nodeObs) coalesced() {
	if o == nil {
		return
	}
	o.coalescedFollowers.Inc()
}

// leaderElection counts one single-flight leader election.
func (o *nodeObs) leaderElection(retry bool) {
	if o == nil {
		return
	}
	if retry {
		o.leaderRetry.Inc()
	} else {
		o.leaderInitial.Inc()
	}
}

// shed counts one request refused at the front door.
func (o *nodeObs) shed() {
	if o == nil {
		return
	}
	o.sheds.Inc()
}

// fetchDial counts one outbound fetch conn dialled.
func (o *nodeObs) fetchDial() {
	if o == nil {
		return
	}
	o.fetchDials.Inc()
}

// fetchReuse counts one outbound exchange started on a pooled conn.
func (o *nodeObs) fetchReuse() {
	if o == nil {
		return
	}
	o.fetchReuses.Inc()
}

// observeUpstreamWait records one contended origin-semaphore acquire.
func (o *nodeObs) observeUpstreamWait(dur time.Duration) {
	if o == nil {
		return
	}
	o.upstreamWaits.Inc()
	o.upstreamWaitDur.ObserveDuration(dur)
}

// observeCheckpoint records one checkpoint attempt.
func (o *nodeObs) observeCheckpoint(dur time.Duration, err error) {
	if o == nil {
		return
	}
	o.checkpointDur.ObserveDuration(dur)
	if err != nil {
		o.checkpointErr.Inc()
	} else {
		o.checkpoints.Inc()
	}
}

// placementSpan stamps the EA decision onto the trace — a placement span
// marking where in the timeline the rule ran, with both piggybacked
// expiration ages and the verdict on the trace's top-level fields —
// counts it, and appends it to the audit log. The span itself carries no
// attributes: duplicating the ages there would cost three string
// allocations on every non-local-hit request for data the trace already
// has.
func (n *Node) placementSpan(tr *obs.Trace, role int, url string, size int64, reqAge, respAge time.Duration, decision int) {
	n.om.decision(role, decision)
	n.auditDecision(tr, role, url, decisionNames[decision], size, reqAge, respAge)
	if tr == nil {
		return
	}
	idx := tr.OpenSpan(obs.StagePlacement, time.Now())
	tr.CloseSpan(idx, 0)
	tr.RequesterAgeMS = obs.AgeMS(reqAge)
	tr.ResponderAgeMS = obs.AgeMS(respAge)
	tr.Decision = decisionNames[decision]
}

// auditDecision appends one placement verdict — with the two eq.-5
// expiration-age inputs exactly as the rule saw them — to the node's
// bounded decision log (served by /debug/placement). localAge is always
// the deciding node's own expiration age, peerAge the one piggybacked
// from the other side, whichever role this node played. Unlike traces
// the log is not sampled: every decision of every request is recorded
// (one small allocation each), because the audit's value is exactness.
func (n *Node) auditDecision(tr *obs.Trace, role int, url, verdict string, size int64, localAge, peerAge time.Duration) {
	if n.om == nil || n.om.tel == nil || n.om.tel.Placement == nil {
		return
	}
	d := &obs.Decision{
		Time: n.now(), Node: n.id, URL: url,
		Role: roleNames[role], Verdict: verdict,
		LocalAgeMS: obs.AgeMS(localAge), PeerAgeMS: obs.AgeMS(peerAge),
		SizeBytes: size,
	}
	if tr != nil {
		d.TraceID = tr.TraceID
		d.RequestID = tr.ID
	}
	n.om.tel.Placement.Record(d)
}

// stageTimer brackets one lifecycle stage. It is a plain value (no
// closure, no heap) because every stage of every request opens one.
type stageTimer struct {
	start time.Time
	span  int
	stage int8
	live  bool
}

// startStage opens one lifecycle stage on both the trace (span) and the
// stage histogram; close it with endStage. One clock read covers both
// sinks.
func (n *Node) startStage(tr *obs.Trace, stage int) stageTimer {
	if tr == nil && n.om == nil {
		return stageTimer{}
	}
	st := stageTimer{start: time.Now(), stage: int8(stage), live: true}
	st.span = tr.OpenSpan(stageNames[stage], st.start)
	return st
}

// endStage seals the stage opened by startStage.
func (n *Node) endStage(tr *obs.Trace, st stageTimer) {
	if !st.live {
		return
	}
	dur := time.Since(st.start)
	tr.CloseSpan(st.span, dur)
	if n.om != nil {
		n.om.stageDur[st.stage].ObserveDuration(dur)
	}
}
