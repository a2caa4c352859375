package main

import "math"

// hist is a latency histogram of fixed size: its memory does not depend
// on how many samples a run produces, so a faster program does not
// raise the benchmark's own share of peak_rss_mb. Buckets grow
// geometrically by histGrowth from histMinNS; a percentile is
// interpolated by rank inside its bucket, so the error is at most half
// a bucket's width (0.1 %).
type hist struct {
	n      int
	counts [histBuckets]uint32
}

const (
	histMinNS  = 1.0 // anything shorter, a wait of 0 included, lands in bucket 0
	histGrowth = 1.002
	// 1 ns · 1.002^histBuckets ≈ 1100 s, far beyond any operation here.
	histBuckets = 13900
)

var histInvLogGrowth = 1 / math.Log(histGrowth)

func histBucket(ns float64) int {
	if ns <= histMinNS {
		return 0
	}
	i := int(math.Log(ns/histMinNS) * histInvLogGrowth)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histEdge returns the lower edge of bucket i in nanoseconds.
func histEdge(i int) float64 { return histMinNS * math.Pow(histGrowth, float64(i)) }

func (h *hist) add(ns float64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in nanoseconds, 0 for an empty
// histogram. The sample of rank r (0-based, fractional as in percentile)
// is placed inside its bucket in proportion to its rank among the
// bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			lo, hi := histEdge(i), histEdge(i+1)
			return lo + (hi-lo)*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	return histEdge(histBuckets) // unreachable: rank < n
}
