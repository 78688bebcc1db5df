package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// stableByTime is the reference SortByTime must equal: the standard
// library's stable sort on Time.
func stableByTime(records []Record) {
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Time.Before(records[j].Time)
	})
}

// numbered returns records at the given second offsets whose Size is
// their input position, so any reordering of equal times shows.
func numbered(secs []int64, client func(i int) string) []Record {
	out := make([]Record, len(secs))
	for i, s := range secs {
		out[i] = Record{Time: ts(s, 0), Client: client(i), URL: "u", Size: int64(i)}
	}
	return out
}

// checkMatchesStable sorts a copy of in both ways and demands identical
// slices, record for record.
func checkMatchesStable(t *testing.T, name string, in []Record) {
	t.Helper()
	got := append([]Record(nil), in...)
	want := append([]Record(nil), in...)
	SortByTime(got)
	stableByTime(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestSortByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anon := func(int) string { return "c" }

	for trial := 0; trial < 50; trial++ {
		secs := make([]int64, rng.Intn(2000))
		for i := range secs {
			secs[i] = rng.Int63n(8) // heavy ties
		}
		checkMatchesStable(t, fmt.Sprintf("ties trial %d", trial), numbered(secs, anon))
	}

	desc := make([]int64, 1000)
	for i := range desc {
		desc[i] = int64(len(desc) - i)
	}
	checkMatchesStable(t, "strictly descending", numbered(desc, anon))

	one := make([]int64, 1000)
	for i := range one {
		one[i] = int64(i / 3)
	}
	checkMatchesStable(t, "one run", numbered(one, anon))

	checkMatchesStable(t, "empty", nil)
	checkMatchesStable(t, "one record", numbered([]int64{5}, anon))
	checkMatchesStable(t, "two descending", numbered([]int64{5, 4}, anon))
}

// TestSortByTimeInterleavedSessions covers the generator's shape: each
// client's sessions are time-ordered runs, emitted client by client, that
// overlap other clients' sessions in time and share timestamps with them.
func TestSortByTimeInterleavedSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var secs []int64
	var clients []string
	for c := 0; c < 40; c++ {
		for s := 0; s < 1+rng.Intn(4); s++ {
			at := rng.Int63n(500)
			for r := 0; r < rng.Intn(60); r++ {
				secs = append(secs, at)
				clients = append(clients, fmt.Sprintf("user%d", c))
				at += rng.Int63n(3)
			}
		}
	}
	checkMatchesStable(t, "interleaved sessions", numbered(secs, func(i int) string { return clients[i] }))

	gen, err := Generate(BULike().Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(gen, func(i, j int) bool { return gen[i].Client < gen[j].Client })
	checkMatchesStable(t, "generated trace regrouped by client", gen)
}

func TestSortByTimeSortedInputDoesNotAllocate(t *testing.T) {
	records := make([]Record, 1000)
	start := time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range records {
		records[i] = Record{Time: start.Add(time.Duration(i/4) * time.Second), Client: "c", URL: "u"}
	}
	if allocs := testing.AllocsPerRun(10, func() { SortByTime(records) }); allocs != 0 {
		t.Fatalf("SortByTime on sorted input: %v allocs per run, want 0", allocs)
	}
	if !Sorted(records) {
		t.Fatal("sorted input reordered")
	}
}
