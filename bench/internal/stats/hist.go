package stats

import "math"

// subBuckets splits every power of two into this many buckets, so a
// bucket spans under 1/128 of its values: a value read back from the
// histogram is within 0.4% of the one recorded.
const subBuckets = 128

// maxExp bounds the recordable values to below 2^maxExp (in whatever
// unit the caller records; ns durations up to 2^44 ns ≈ 4.9 hours).
const maxExp = 44

// Hist is a fixed-size histogram of positive values with log-spaced
// buckets. It answers rank queries — median, tail — within 0.4% without
// keeping the values, so a run's memory does not grow with its op
// count (the benchmark reports its own peak memory).
type Hist struct {
	counts [maxExp * subBuckets]uint64
	n      int
	max    float64
}

func bucket(v float64) int {
	frac, exp := math.Frexp(v) // v = frac · 2^exp, frac in [0.5, 1)
	if exp < 1 {
		return 0
	}
	if exp > maxExp {
		return maxExp*subBuckets - 1
	}
	return (exp-1)*subBuckets + int((frac-0.5)*2*subBuckets)
}

// value returns the midpoint of bucket i.
func value(i int) float64 {
	exp, sub := i/subBuckets+1, i%subBuckets
	return math.Ldexp(0.5+(float64(sub)+0.5)/(2*subBuckets), exp)
}

// Add records v.
func (h *Hist) Add(v float64) {
	h.counts[bucket(v)]++
	h.n++
	h.max = max(h.max, v)
}

// N is the number of recorded values.
func (h *Hist) N() int { return h.n }

// Max is the largest recorded value, exactly.
func (h *Hist) Max() float64 { return h.max }

// rank returns the k-th smallest value (0-based).
func (h *Hist) rank(k int) float64 {
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen > k {
			return min(value(i), h.max)
		}
	}
	return h.max
}

// Median returns the median of the recorded values, or NaN when there
// are none.
func (h *Hist) Median() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return (h.rank((h.n-1)/2) + h.rank(h.n/2)) / 2
}

// TailBeyond is the number of values a reported tail percentile must
// leave above it.
const TailBeyond = 10

// Tail returns the highest percentile of the recorded values that
// leaves at least TailBeyond values above it, capped at the 99th: with
// 1000 or more values that is the p99, with fewer a lower percentile.
// pct is the percentile the value stands for. ok is false when there
// are too few values for any percentile to qualify (TailBeyond or
// fewer); v is then NaN, never a stand-in.
func (h *Hist) Tail() (v, pct float64, ok bool) {
	beyond := max(TailBeyond, h.n/100)
	if h.n <= beyond {
		return math.NaN(), math.NaN(), false
	}
	k := h.n - 1 - beyond
	return h.rank(k), 100 * float64(k+1) / float64(h.n), true
}
