// Package trace provides the workload substrate: the request-record model,
// a canonical text format, a parser for Boston University client logs (the
// trace family the paper evaluates on), trace statistics, and a synthetic
// generator calibrated to the published BU trace shape for use when the
// original 1994-95 logs are not available.
package trace

import (
	"math"
	"slices"
	"time"
)

// Record is one client request in a reference stream.
type Record struct {
	// Time is when the request was issued.
	Time time.Time
	// Client identifies the requesting user or user@machine; the
	// simulator routes each client to a fixed proxy in the group.
	Client string
	// URL identifies the requested document.
	URL string
	// Size is the document size in bytes. Zero means the original log
	// did not record a size; the paper (and CleanZeroSizes) substitutes
	// the 4KB average document size.
	Size int64
}

// DefaultDocSize is the 4KB average document size the paper substitutes for
// zero-size trace records.
const DefaultDocSize = 4096

// CleanZeroSizes returns records with every non-positive size replaced by
// def, mirroring the paper's trace preparation ("we made the size of each
// such record equal to average document size of 4K bytes"). The input slice
// is not modified.
func CleanZeroSizes(records []Record, def int64) []Record {
	out := make([]Record, len(records))
	copy(out, records)
	for i := range out {
		if out[i].Size <= 0 {
			out[i].Size = def
		}
	}
	return out
}

// SortByTime sorts records chronologically and stably: records with equal
// times keep their input order, so the result is exactly what a stable
// sort on Time produces.
//
// Generated and logged traces are concatenations of time-ordered runs
// (one per session or per log file), so SortByTime splits the input into
// its maximal non-decreasing runs and merges them with a heap keyed by
// (head time, run position); the position breaks ties in favour of the
// earlier run, which keeps the merge stable. The merged order is applied
// in place by following the permutation's cycles, so records are never
// copied to a second slice: extra memory is one int32 per record plus
// O(runs), and n records in k runs take O(n log k) comparisons and at
// most n+cycles record moves. Already-sorted input costs one scan and
// allocates nothing.
func SortByTime(records []Record) {
	n := len(records)
	if n < 2 || runEnd(records, 0) == n {
		return
	}
	if n > math.MaxInt32 {
		slices.SortStableFunc(records, func(a, b Record) int { return a.Time.Compare(b.Time) })
		return
	}
	var heads []runHead
	for start, end := 0, 0; start < n; start = end {
		end = runEnd(records, start)
		heads = append(heads, runHead{t: records[start].Time, next: int32(start), end: int32(end)})
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}

	// order[k] is the input position of the k-th record in time order.
	order := make([]int32, n)
	for k := range order {
		h := &heads[0]
		order[k] = h.next
		if h.next++; h.next < h.end {
			h.t = records[h.next].Time
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}

	// Apply the permutation one cycle at a time, marking each position
	// done by pointing its order entry at itself.
	for k := range order {
		if int(order[k]) == k {
			continue
		}
		held := records[k]
		j := k
		for {
			src := int(order[j])
			order[j] = int32(j)
			if src == k {
				records[j] = held
				break
			}
			records[j] = records[src]
			j = src
		}
	}
}

// runEnd returns the end of the maximal non-decreasing run starting at
// start.
func runEnd(records []Record, start int) int {
	i := start + 1
	for i < len(records) && !records[i].Time.Before(records[i-1].Time) {
		i++
	}
	return i
}

// runHead is one unmerged run in SortByTime's heap: the time of its next
// record, that record's position, and the run's end.
type runHead struct {
	t         time.Time
	next, end int32
}

// before orders heads by time, then by position: runs are disjoint and
// ascending, so the lower position belongs to the earlier run.
func (a *runHead) before(b *runHead) bool {
	return a.t.Before(b.t) || (!b.t.Before(a.t) && a.next < b.next)
}

// siftDown restores the min-heap property below heads[i].
func siftDown(heads []runHead, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(heads) && heads[l].before(&heads[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(heads) && heads[r].before(&heads[least]) {
			least = r
		}
		if least == i {
			return
		}
		heads[i], heads[least] = heads[least], heads[i]
		i = least
	}
}

// Sorted reports whether records are in chronological order.
func Sorted(records []Record) bool {
	for i := 1; i < len(records); i++ {
		if records[i].Time.Before(records[i-1].Time) {
			return false
		}
	}
	return true
}
