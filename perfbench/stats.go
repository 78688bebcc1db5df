package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: a p99 over fewer than 1,000 samples would be decided by a
// handful of requests, so it is refused instead of reported.
const minTail = 10

// rankOf returns the 1-based nearest rank of the q-quantile over n
// samples: the smallest rank with at least q·n samples at or below it.
func rankOf(q float64, n int) int {
	// The epsilon keeps q·n from landing one rank high when the product
	// is an integer that floating point overshoots (0.99·1000).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns the q-quantile of sorted (ascending) by the
// nearest-rank rule, or 0 for no samples.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// tailPercentile returns the q-quantile of sorted only when at least
// minTail samples lie beyond its rank.
func tailPercentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	r := rankOf(q, n)
	if n-r < minTail {
		return 0, false
	}
	return sorted[r-1], true
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

// ratio is a quotient reported together with its base, so a reader can
// tell 1 of 2 from 500 of 1,000.
type ratio struct {
	Num float64 `json:"num"`
	Den float64 `json:"den"`
}

// Value is Num/Den, or 0 over an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// interval is a half-open span [Start, End) on one clock.
type interval struct{ Start, End time.Duration }

// selfTime is parent's duration minus the part of it that children
// cover. Children are clipped to the parent, and overlapping children
// are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// tracingOverhead is the traced run's CPU per request relative to the
// untraced run's: 0.05 means tracing costs 5% more CPU per request.
func tracingOverhead(tracedCPUPerReq, untracedCPUPerReq float64) float64 {
	if untracedCPUPerReq <= 0 {
		return 0
	}
	return tracedCPUPerReq/untracedCPUPerReq - 1
}
