package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile returns the ceil(q*n)-th smallest sample — the same
// rank definition Digest.Quantile uses, so the two are comparable.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestDigestQuantileAccuracy compares p50/p95/p99 against exact
// sorted-sample quantiles on uniform, heavy-tailed, and constant
// distributions. The digest's stated error is half a sub-bucket (1/64
// relative, ~1.6%); the test allows 2% for rank-boundary effects.
func TestDigestQuantileAccuracy(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() time.Duration{
		"uniform": func() time.Duration { // 1 µs .. 1 ms
			return time.Microsecond + time.Duration(rng.Int63n(int64(999*time.Microsecond)))
		},
		"heavy-tailed": func() time.Duration { // Pareto, alpha 1.3, scale 50 µs
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			return time.Duration(float64(50*time.Microsecond) / math.Pow(u, 1/1.3))
		},
		"constant": func() time.Duration { return 250 * time.Microsecond },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			var d Digest
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = draw()
				d.Add(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.50, 0.95, 0.99} {
				exact := exactQuantile(samples, q)
				got := d.Quantile(q)
				relErr := math.Abs(float64(got-exact)) / float64(exact)
				if relErr > 0.02 {
					t.Errorf("q=%.2f: digest %v vs exact %v (rel err %.2f%%, want <= 2%%)",
						q, got, exact, 100*relErr)
				}
			}
			if name == "constant" {
				// One-point distributions must be exact: the reported value
				// is clamped to the observed min/max.
				for _, q := range []float64{0, 0.5, 1} {
					if got := d.Quantile(q); got != 250*time.Microsecond {
						t.Errorf("constant q=%.1f: got %v, want 250µs exactly", q, got)
					}
				}
			}
		})
	}
}

// TestDigestMerge: merging two halves must be equivalent to observing
// the whole stream in one digest.
func TestDigestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b Digest
	for i := 0; i < 4000; i++ {
		v := time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%.2f: merged %v != whole %v", q, got, want)
		}
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged extremes [%v, %v] != whole [%v, %v]", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

// TestDigestEdgeCases: empty digests, zero/negative values, and Reset.
func TestDigestEdgeCases(t *testing.T) {
	var d Digest
	if d.Quantile(0.5) != 0 || d.N() != 0 {
		t.Fatal("empty digest should report 0")
	}
	d.Add(-time.Second) // clamps to 0
	d.Add(0)
	d.Add(10 * time.Nanosecond) // sub-32ns values are exact
	if got := d.Quantile(1); got != 10*time.Nanosecond {
		t.Fatalf("max quantile = %v, want 10ns", got)
	}
	if got := d.Quantile(0); got != 0 {
		t.Fatalf("min quantile = %v, want 0", got)
	}
	d.Reset()
	if d.N() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear the digest")
	}
	d.Add(time.Hour) // far octave after reset still lands correctly
	if got := d.Quantile(0.5); got != time.Hour {
		t.Fatalf("post-reset quantile = %v, want 1h", got)
	}
}

// TestDigestBucketMonotone: bucket indexing must be monotone and
// midpoints must land inside their buckets across octave boundaries.
func TestDigestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 1, 1 << 40} {
		b := digestBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
		if got := digestBucket(digestMid(b)); got != b {
			t.Errorf("midpoint of bucket %d (value %d) maps to bucket %d", b, digestMid(b), got)
		}
	}
}

// denseDigest is the digest's earlier layout, kept as the reference the
// sparse window must reproduce: counts dense from bucket 0, regrown to
// exactly b+1 whenever a value lands past the last bucket.
type denseDigest struct {
	counts            []int64
	total, minV, maxV int64
}

func (d *denseDigest) add(v time.Duration) {
	x := max(int64(v), 0)
	b := digestBucket(x)
	if b >= len(d.counts) {
		grown := make([]int64, b+1)
		copy(grown, d.counts)
		d.counts = grown
	}
	d.counts[b]++
	if d.total == 0 || x < d.minV {
		d.minV = x
	}
	if d.total == 0 || x > d.maxV {
		d.maxV = x
	}
	d.total++
}

func (d *denseDigest) merge(o *denseDigest) {
	if o.total == 0 {
		return
	}
	if len(o.counts) > len(d.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, d.counts)
		d.counts = grown
	}
	for b, c := range o.counts {
		d.counts[b] += c
	}
	if d.total == 0 || o.minV < d.minV {
		d.minV = o.minV
	}
	if d.total == 0 || o.maxV > d.maxV {
		d.maxV = o.maxV
	}
	d.total += o.total
}

func (d *denseDigest) quantile(q float64) time.Duration {
	if d.total == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(d.total))), 1), d.total)
	var cum int64
	for b, c := range d.counts {
		cum += c
		if cum >= rank {
			return time.Duration(min(max(digestMid(b), d.minV), d.maxV))
		}
	}
	return time.Duration(d.maxV)
}

// sameAsDense fails the test unless the digest answers every query
// exactly as the dense reference does.
func sameAsDense(t *testing.T, label string, got *Digest, want *denseDigest) {
	t.Helper()
	if got.N() != want.total || got.Min() != time.Duration(want.minV) || got.Max() != time.Duration(want.maxV) {
		t.Errorf("%s: N/Min/Max = %d/%v/%v, dense %d/%v/%v", label,
			got.N(), got.Min(), got.Max(), want.total, time.Duration(want.minV), time.Duration(want.maxV))
	}
	for q := 0.0; q <= 1.0; q += 0.005 {
		if g, w := got.Quantile(q), want.quantile(q); g != w {
			t.Fatalf("%s: q=%.3f: %v, dense %v", label, q, g, w)
		}
	}
}

// TestDigestMatchesDenseReference pins the sparse bucket window against
// the dense layout: Add, Merge, Quantile, Min, Max, N and Reset answer
// exactly as before on the accuracy test's distributions, on digests
// with disjoint spans merged both ways, and across Reset.
func TestDigestMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := map[string]func() time.Duration{
		"uniform": func() time.Duration {
			return time.Microsecond + time.Duration(rng.Int63n(int64(999*time.Microsecond)))
		},
		"heavy-tailed": func() time.Duration {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			return time.Duration(float64(50*time.Microsecond) / math.Pow(u, 1/1.3))
		},
		"constant": func() time.Duration { return 250 * time.Microsecond },
		"tiny":     func() time.Duration { return time.Duration(rng.Int63n(40)) - 3 },
		"nanos-to-seconds": func() time.Duration {
			return time.Duration(math.Exp(rng.Float64() * math.Log(float64(time.Second))))
		},
	}
	for name, draw := range draws {
		var d Digest
		var ref denseDigest
		for i := 0; i < 5000; i++ {
			v := draw()
			d.Add(v)
			ref.add(v)
			if i < 40 || i%997 == 0 {
				sameAsDense(t, name, &d, &ref)
			}
		}
		sameAsDense(t, name, &d, &ref)
	}

	// Disjoint spans: microseconds against seconds, merged each way and
	// into empty and reset digests.
	span := func(lo, hi time.Duration, n int) (*Digest, *denseDigest) {
		var d Digest
		var ref denseDigest
		for i := 0; i < n; i++ {
			v := lo + time.Duration(rng.Int63n(int64(hi-lo)))
			d.Add(v)
			ref.add(v)
		}
		return &d, &ref
	}
	lowD, lowR := span(2*time.Microsecond, 9*time.Microsecond, 300)
	highD, highR := span(time.Second, 3*time.Second, 300)
	for _, c := range []struct {
		label          string
		dst, src       *Digest
		dstRef, srcRef *denseDigest
	}{
		{"high into low", lowD, highD, lowR, highR},
		{"low into high", highD, lowD, highR, lowR},
	} {
		var d Digest
		var ref denseDigest
		d.Merge(c.dst)
		ref.merge(c.dstRef)
		sameAsDense(t, c.label+" (copy)", &d, &ref)
		d.Merge(c.src)
		ref.merge(c.srcRef)
		sameAsDense(t, c.label, &d, &ref)
		d.Reset()
		ref = denseDigest{counts: make([]int64, len(ref.counts))}
		sameAsDense(t, c.label+" (reset)", &d, &ref)
		d.Merge(c.src)
		ref.merge(c.srcRef)
		d.Add(time.Hour)
		ref.add(time.Hour)
		sameAsDense(t, c.label+" (after reset)", &d, &ref)
	}
}

// TestDigestStoresOccupiedSpan pins the memory the window saves: a
// digest of values near 1 ms holds a few dozen buckets, not the ~510 a
// dense array from bucket 0 needs, and a two-observation digest
// allocates once.
func TestDigestStoresOccupiedSpan(t *testing.T) {
	var d Digest
	for _, v := range []time.Duration{900 * time.Microsecond, time.Millisecond, 1100 * time.Microsecond} {
		d.Add(v)
	}
	if n, dense := len(d.counts), digestBucket(int64(1100*time.Microsecond))+1; n > 64 || dense < 500 {
		t.Errorf("window holds %d buckets (dense layout %d)", n, dense)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var d Digest
		d.Add(100 * time.Microsecond)
		d.Add(105 * time.Microsecond)
		if d.N() != 2 {
			t.Fatal("lost an observation")
		}
	})
	if allocs != 1 {
		t.Errorf("two-observation digest allocated %.1f times, want 1", allocs)
	}
}
