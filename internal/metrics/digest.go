package metrics

import (
	"math"
	"math/bits"
	"time"
)

// digestSubBits sets the Digest's resolution: each power-of-two octave
// is split into 2^digestSubBits linear sub-buckets.
const digestSubBits = 5

// digestSubCount is the number of linear sub-buckets per octave (32).
const digestSubCount = 1 << digestSubBits

// Digest is a streaming quantile sketch for latency observations — an
// HDR-histogram-style structure: exact counts below 32 ns, then 32
// linear sub-buckets per power-of-two octave. Adds are O(1), memory is
// bounded (~1900 buckets covers 1 ns to ~292 years), digests merge by
// bucket-wise addition, and everything is deterministic — no sampling,
// no randomized compaction — so parallel and serial experiment runs
// stay byte-identical.
//
// A digest's first four observations are kept inline, sorted, and cost
// no allocation; the fifth moves them into buckets. A serving
// population of 10^4 mostly idle tenants then holds its few sojourns
// per tenant in place instead of a bucket window each. From then on
// only the occupied span of buckets is stored: a window starting at
// bucket lo that covers digestBucket(min) through digestBucket(max),
// grown geometrically as observations land outside it. A digest of
// sojourns around 1 ms holds tens of buckets, not the ~510 a dense
// array from bucket 0 would. Both modes answer every query alike: an
// inline observation reports the midpoint of the bucket it would land
// in, with the same clamp.
//
// Accuracy: a reported quantile is the midpoint of the bucket holding
// the true rank-q observation, so its relative error is at most half a
// sub-bucket width — 1/64 (~1.6%) — for values >= 32 ns, and zero below.
// Reported values are additionally clamped to the observed [min, max],
// making one-point distributions exact. TestDigestQuantileAccuracy pins
// the bound against exact sorted-sample quantiles.
type Digest struct {
	counts []int64 // counts[i] is bucket lo+i; nil while inline
	lo     int
	total  int64
	min    int64
	max    int64
	// raw[:total] are the observations, ascending, while counts is nil.
	raw [digestInline]int64
}

// digestInline is how many observations a digest keeps inline before
// it allocates buckets.
const digestInline = 4

// digestMinSpan is the smallest window a digest allocates.
const digestMinSpan = 16

// digestBucket maps a non-negative value to its bucket index.
func digestBucket(v int64) int {
	if v < digestSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v) >= digestSubBits
	shift := exp - digestSubBits
	base := (exp - digestSubBits + 1) << digestSubBits
	return base + int((v>>shift)&(digestSubCount-1))
}

// digestMid returns the midpoint value of a bucket.
func digestMid(b int) int64 {
	if b < digestSubCount {
		return int64(b)
	}
	block := b >> digestSubBits
	sub := int64(b & (digestSubCount - 1))
	shift := block - 1
	low := (digestSubCount + sub) << shift
	return low + (int64(1)<<shift)/2
}

// Add records one duration observation. Negative durations count as 0.
func (d *Digest) Add(v time.Duration) {
	x := int64(v)
	if x < 0 {
		x = 0
	}
	b := digestBucket(x)
	i := b - d.lo
	if uint(i) >= uint(len(d.counts)) { // inline, or below or above the window
		if d.counts == nil {
			if d.total < digestInline {
				d.addInline(x)
				return
			}
			d.spill(b, b)
		} else {
			d.cover(b, b)
		}
		i = b - d.lo
	}
	d.counts[i]++
	if d.total == 0 || x < d.min {
		d.min = x
	}
	if d.total == 0 || x > d.max {
		d.max = x
	}
	d.total++
}

// addInline inserts x into the sorted inline observations.
func (d *Digest) addInline(x int64) {
	i := d.total
	for ; i > 0 && d.raw[i-1] > x; i-- {
		d.raw[i] = d.raw[i-1]
	}
	d.raw[i] = x
	d.total++
	d.min, d.max = d.raw[0], d.raw[d.total-1]
}

// spill moves an inline digest's observations into a bucket window
// that covers them and buckets first through last.
func (d *Digest) spill(first, last int) {
	if d.total > 0 {
		first, last = min(first, digestBucket(d.min)), max(last, digestBucket(d.max))
	}
	d.cover(first, last)
	for _, x := range d.raw[:d.total] {
		d.counts[digestBucket(x)-d.lo]++
	}
}

// cover widens the window to include buckets first through last. A
// window that must grow at least doubles, so observations drifting
// outward reallocate O(log n) times; an empty digest whose window is
// wide enough just moves it.
func (d *Digest) cover(first, last int) {
	n, w := len(d.counts), last-first+1
	if d.total == 0 && w <= n {
		d.lo = max(0, first-(n-w)/2)
		return
	}
	if n == 0 {
		size := max(digestMinSpan, w)
		d.counts = make([]int64, size)
		d.lo = max(0, first-(size-w)/2)
		return
	}
	lo, hi := d.lo, d.lo+n // current window [lo, hi)
	nhi := max(hi, last+1)
	size := max(2*n, nhi-min(lo, first))
	nlo := lo // growing upward keeps the bottom
	if first < lo {
		nlo = max(0, nhi-size) // growing downward keeps the top
	}
	grown := make([]int64, size)
	copy(grown[lo-nlo:], d.counts)
	d.counts, d.lo = grown, nlo
}

// N returns the observation count.
func (d *Digest) N() int64 { return d.total }

// Min and Max return the exact observed extremes (0 when empty).
func (d *Digest) Min() time.Duration { return time.Duration(d.min) }
func (d *Digest) Max() time.Duration { return time.Duration(d.max) }

// Quantile returns the value at quantile q in [0, 1] — the bucket
// midpoint of the ceil(q*N)-th smallest observation, clamped to the
// observed range. An empty digest returns 0.
func (d *Digest) Quantile(q float64) time.Duration {
	if d.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(d.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > d.total {
		rank = d.total
	}
	if d.counts == nil {
		return d.midpoint(digestBucket(d.raw[rank-1]))
	}
	var cum int64
	for i, c := range d.counts {
		cum += c
		if cum >= rank {
			return d.midpoint(d.lo + i)
		}
	}
	return time.Duration(d.max)
}

// midpoint returns bucket b's midpoint clamped to the observed range.
func (d *Digest) midpoint(b int) time.Duration {
	return time.Duration(min(max(digestMid(b), d.min), d.max))
}

// Merge folds another digest's observations into this one.
func (d *Digest) Merge(o *Digest) {
	if o.total == 0 {
		return
	}
	if o.counts == nil {
		raw, n := o.raw, o.total // a copy: o may be d
		for _, x := range raw[:n] {
			d.Add(time.Duration(x))
		}
		return
	}
	// o's observations lie in buckets [first, last]; its window may hold
	// empty buckets around them.
	first, last := digestBucket(o.min), digestBucket(o.max)
	if d.counts == nil {
		d.spill(first, last)
	} else if first < d.lo || last >= d.lo+len(d.counts) {
		d.cover(first, last)
	}
	src := o.counts[first-o.lo : last-o.lo+1]
	dst := d.counts[first-d.lo:]
	dst = dst[:len(src)]
	for i, c := range src {
		dst[i] += c
	}
	if d.total == 0 || o.min < d.min {
		d.min = o.min
	}
	if d.total == 0 || o.max > d.max {
		d.max = o.max
	}
	d.total += o.total
}

// Reset clears the digest for reuse (warmup exclusion). A digest that
// has buckets keeps its window.
func (d *Digest) Reset() {
	clear(d.counts)
	d.total, d.min, d.max = 0, 0, 0
}
