package eacache_test

import (
	"bytes"
	"sort"
	"strconv"
	"testing"
	"time"

	"eacache/internal/benchkit"
	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/dist"
	"eacache/internal/group"
	"eacache/internal/hproto"
	"eacache/internal/icp"
	"eacache/internal/sim"
	"eacache/internal/trace"
)

// The artifact benchmark bodies live in internal/benchkit (at trace
// scale benchkit.Scale, preserving the paper's cache-to-working-set
// ratio) so cmd/benchjson can run the same measurements headlessly.
// cmd/experiments -full regenerates the artifacts at full paper scale.
func benchArtifact(b *testing.B, id string) {
	benchkit.Artifact(id)(b)
}

// BenchmarkFig1 regenerates paper Figure 1 (document hit rates, ad-hoc vs
// EA, 4-cache group across aggregate sizes).
func BenchmarkFig1(b *testing.B) { benchArtifact(b, "fig1") }

// BenchmarkFig2 regenerates paper Figure 2 (byte hit rates).
func BenchmarkFig2(b *testing.B) { benchArtifact(b, "fig2") }

// BenchmarkFig3 regenerates paper Figure 3 (estimated average latency,
// equation 6 with the paper's 146/342/2784ms model).
func BenchmarkFig3(b *testing.B) { benchArtifact(b, "fig3") }

// BenchmarkTable1 regenerates paper Table 1 (average cache expiration age).
func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkTable2 regenerates paper Table 2 (local/remote hit split and
// latency for both schemes).
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkGroupSize regenerates the §4.2 group-size claims (2/4/8 caches).
func BenchmarkGroupSize(b *testing.B) { benchArtifact(b, "groupsize") }

// BenchmarkReplication regenerates the replication-control study behind the
// paper's §2 motivation.
func BenchmarkReplication(b *testing.B) { benchArtifact(b, "replication") }

// BenchmarkAblationLFU regenerates the LFU-replacement ablation (paper
// §3.2.2 expiration-age definition).
func BenchmarkAblationLFU(b *testing.B) { benchArtifact(b, "ablation-policy") }

// BenchmarkAblationWindow regenerates the expiration-age window ablation
// (the paper's "(Ti, Tj)" choice).
func BenchmarkAblationWindow(b *testing.B) { benchArtifact(b, "ablation-window") }

// BenchmarkHierarchy regenerates the hierarchical-architecture experiment
// (paper §3.3 algorithm).
func BenchmarkHierarchy(b *testing.B) { benchArtifact(b, "hierarchy") }

// BenchmarkLocation regenerates the ICP-vs-Summary-Cache-digest comparison
// (related work extension).
func BenchmarkLocation(b *testing.B) { benchArtifact(b, "location") }

// BenchmarkPartitioned regenerates the placement-extremes comparison
// against consistent-hash partitioning (related work extension).
func BenchmarkPartitioned(b *testing.B) { benchArtifact(b, "partitioned") }

// BenchmarkCoherence regenerates the freshness-tax (TTL) experiment.
func BenchmarkCoherence(b *testing.B) { benchArtifact(b, "coherence") }

// BenchmarkWorstCase regenerates the §2 worst-case broadcast experiment
// (full replication drives effective space to aggregate/N).
func BenchmarkWorstCase(b *testing.B) { benchArtifact(b, "worstcase") }

// BenchmarkModelCheck regenerates the simulator-vs-analytical-model
// validation.
func BenchmarkModelCheck(b *testing.B) { benchArtifact(b, "model-check") }

// BenchmarkDigestIncremental measures keeping the advertised digest
// current via counting-filter updates: one op is one steady-state churn
// step (admit + evict) on an 8K-document resident set.
func BenchmarkDigestIncremental(b *testing.B) {
	benchkit.DigestMaintenance(true, 8192)(b)
}

// BenchmarkDigestRebuild is the delayed-rebuild baseline the incremental
// path replaced: mutations are free until 1% of the resident set churns,
// then a full URL scan rebuilds the filter.
func BenchmarkDigestRebuild(b *testing.B) {
	benchkit.DigestMaintenance(false, 8192)(b)
}

// BenchmarkDigestSync measures the wire cost of one delta refresh after
// 16 churn steps; delta_full_byte_ratio reports delta bytes against the
// full-filter transfer the delta replaces.
func BenchmarkDigestSync(b *testing.B) {
	benchkit.DigestSync(8192, 16)(b)
}

// BenchmarkTierDemote measures the disk-tier demotion path: one Put into
// a full memory tier per op, whose victim's checksummed body is written
// to the blob store.
func BenchmarkTierDemote(b *testing.B) {
	benchkit.TierDemote()(b)
}

// BenchmarkTierPromote measures the disk-tier promotion path: one Get of
// a disk-resident document per op — verified blob read, memory re-entry,
// and the displaced victim's demotion.
func BenchmarkTierPromote(b *testing.B) {
	benchkit.TierPromote()(b)
}

// BenchmarkMemoryHit and BenchmarkMemoryHitTiered are the tier refactor's
// hot-path guard: the same warm memory Get, direct vs through the
// TieredStore pass-through. bytes/op and allocs/op must be identical
// (cmd/benchjson -check-tier enforces it in CI).
func BenchmarkMemoryHit(b *testing.B)       { benchkit.MemoryHit(false)(b) }
func BenchmarkMemoryHitTiered(b *testing.B) { benchkit.MemoryHit(true)(b) }

// BenchmarkSimulatorThroughput measures raw trace-replay speed through a
// 4-cache EA group (requests per op reported as custom metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	records := benchkit.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := group.New(group.Config{
			Caches:         4,
			AggregateBytes: 2 << 20,
			Scheme:         core.EA{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(g, records, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(records)), "requests/op")
}

// BenchmarkCacheLRU measures the cache substrate's hot path: Put with
// eviction pressure plus Get.
func BenchmarkCacheLRU(b *testing.B) {
	benchCachePolicy(b, "lru")
}

// BenchmarkCacheLFU measures the heap-based LFU policy on the same path.
func BenchmarkCacheLFU(b *testing.B) {
	benchCachePolicy(b, "lfu")
}

// BenchmarkCacheGDS measures the GreedyDual-Size policy on the same path.
func BenchmarkCacheGDS(b *testing.B) {
	benchCachePolicy(b, "gds")
}

func benchCachePolicy(b *testing.B, policy string) {
	b.Helper()
	p, ok := cache.NewPolicy(policy)
	if !ok {
		b.Fatalf("unknown policy %q", policy)
	}
	s, err := cache.New(cache.Config{Capacity: 1 << 20, Policy: p})
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, 4096)
	for i := range urls {
		urls[i] = "http://bench.example.edu/doc" + strconv.Itoa(i)
	}
	now := time.Unix(784900000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := urls[i%len(urls)]
		if _, ok := s.Get(u, now); !ok {
			if _, err := s.Put(cache.Document{URL: u, Size: 2048}, now); err != nil {
				b.Fatal(err)
			}
		}
		now = now.Add(time.Second)
	}
}

// BenchmarkICPMarshalParse measures one query encode/decode round trip.
func BenchmarkICPMarshalParse(b *testing.B) {
	m := icp.Query(7, "http://cs-www.example.edu/courses/cs101/assignment1.html")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := m.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := icp.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHprotoRoundTrip measures an inter-proxy request head round trip
// with the expiration-age piggyback.
func BenchmarkHprotoRoundTrip(b *testing.B) {
	req := hproto.Request{
		URL:          "http://cs-www.example.edu/index.html",
		RequesterAge: 90 * time.Second,
		SizeHint:     4096,
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := hproto.WriteRequest(&buf, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZipfSample measures the popularity sampler the workload
// generator leans on.
func BenchmarkZipfSample(b *testing.B) {
	z, err := dist.NewZipf(46830, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	r := dist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Rank(r)
	}
}

// BenchmarkTraceGenerate measures synthetic workload generation at 1% of
// paper scale.
func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.BULike().Scaled(0.01)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerateFull measures generation of the full paper-scale
// trace (575,775 records), where putting the ~4,700 sessions in time
// order is a large share of the cost.
func BenchmarkTraceGenerateFull(b *testing.B) {
	cfg := trace.BULike()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortByTime sorts the full-scale trace regrouped by client:
// 591 time-ordered runs, one per user, interleaved in time.
func BenchmarkSortByTime(b *testing.B) {
	recs, err := trace.Generate(trace.BULike())
	if err != nil {
		b.Fatal(err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Client < recs[j].Client })
	work := make([]trace.Record, len(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, recs)
		b.StartTimer()
		trace.SortByTime(work)
	}
}
