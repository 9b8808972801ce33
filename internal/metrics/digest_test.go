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

// TestDigestStoresOccupiedSpan pins the memory the inline mode and the
// window save: a digest of at most four observations allocates
// nothing, the fifth allocates its window once, and a digest of values
// near 1 ms holds a few dozen buckets, not the ~510 a dense array from
// bucket 0 needs.
func TestDigestStoresOccupiedSpan(t *testing.T) {
	near1ms := []time.Duration{900 * time.Microsecond, time.Millisecond, 1100 * time.Microsecond,
		950 * time.Microsecond, 1050 * time.Microsecond}
	var d Digest
	for _, v := range near1ms {
		d.Add(v)
	}
	if n, dense := len(d.counts), digestBucket(int64(1100*time.Microsecond))+1; n > 64 || dense < 500 {
		t.Errorf("window holds %d buckets (dense layout %d)", n, dense)
	}
	for n := 1; n <= len(near1ms); n++ {
		want := 0.0
		if n > digestInline {
			want = 1
		}
		allocs := testing.AllocsPerRun(100, func() {
			var d Digest
			for _, v := range near1ms[:n] {
				d.Add(v)
			}
			if d.N() != int64(n) {
				t.Fatal("lost an observation")
			}
		})
		if allocs != want {
			t.Errorf("%d-observation digest allocated %.1f times, want %.0f", n, allocs, want)
		}
	}
}

// FuzzDigest runs arbitrary sequences of Add, Merge (both ways between
// inline and bucketed digests, and into itself), Reset and Quantile over
// three digests, and after every operation checks the digest it touched
// against the dense reference: N, Min, Max and the quantiles agree. It
// also checks the mode: a digest holds buckets exactly once it has held
// a fifth observation or merged a nonempty bucketed digest, and keeps
// them across Reset.
func FuzzDigest(f *testing.F) {
	// Seeds: digests 0 and 1 filled with a few observations each, then
	// 1 merged into 0 and p50 read, covering the four inline/bucketed
	// directions; the last resets a bucketed digest and merges it into
	// itself.
	fill := func(i byte, k int) []byte {
		var ops []byte
		for n := 0; n < k; n++ {
			ops = append(ops, 0, i, byte(7*n+5), byte(n), byte(31*n))
		}
		return ops
	}
	for _, c := range []struct{ dst, src int }{{2, 1}, {1, 6}, {6, 2}, {5, 7}} {
		ops := append(fill(0, c.dst), fill(1, c.src)...)
		f.Add(append(ops, 2, 0, 1, 4, 0, 128))
	}
	f.Add(append(fill(2, 9), 3, 2, 0, 0, 2, 7, 1, 2, 2, 2, 2, 4, 2, 250)) // reset, add, self-merge, p98
	f.Fuzz(func(t *testing.T, ops []byte) {
		var ds [3]Digest
		var refs [3]denseDigest
		// bucketed is the mode each digest must be in. Past 64 steps an
		// input only repeats what shorter ones do, more slowly.
		var bucketed [3]bool
		for steps := 0; len(ops) >= 3 && steps < 64; steps++ {
			op, i, arg := ops[0]%5, int(ops[1]%3), ops[2]
			ops = ops[3:]
			switch op {
			case 0, 1: // Add: arg picks the octave, two more bytes the mantissa
				if len(ops) < 2 {
					return
				}
				v := time.Duration(int64(ops[0])<<8|int64(ops[1])) << (arg % 48) >> 8
				if op == 1 && arg&1 == 1 {
					v = -v
				}
				ops = ops[2:]
				ds[i].Add(v)
				refs[i].add(v)
				bucketed[i] = bucketed[i] || refs[i].total > digestInline
			case 2: // Merge digest arg%3 into i (itself included)
				j := int(arg % 3)
				if refs[i].total+refs[j].total > 1<<40 {
					continue // repeated self-merges double the count toward overflow
				}
				fromBuckets := bucketed[j] && refs[j].total > 0
				ds[i].Merge(&ds[j])
				refs[i].merge(&refs[j])
				bucketed[i] = bucketed[i] || fromBuckets || refs[i].total > digestInline
			case 3:
				ds[i].Reset()
				refs[i] = denseDigest{}
			case 4: // Quantile at q = arg/255
				q := float64(arg) / 255
				if g, w := ds[i].Quantile(q), refs[i].quantile(q); g != w {
					t.Fatalf("digest %d: q=%.3f: %v, dense %v", i, q, g, w)
				}
			}
			if has := ds[i].counts != nil; has != bucketed[i] {
				t.Fatalf("digest %d: holds buckets %v, want %v (%d observations)", i, has, bucketed[i], refs[i].total)
			}
			checkDigest(t, i, &ds[i], &refs[i])
		}
	})
}

// checkDigest fails unless d answers N, Min, Max and quantiles as the
// dense reference does: every rank up to eight observations, the
// quartiles, p99 and the extremes past that.
func checkDigest(t *testing.T, i int, d *Digest, ref *denseDigest) {
	t.Helper()
	if d.N() != ref.total || d.Min() != time.Duration(ref.minV) || d.Max() != time.Duration(ref.maxV) {
		t.Fatalf("digest %d: N/Min/Max = %d/%v/%v, dense %d/%v/%v", i,
			d.N(), d.Min(), d.Max(), ref.total, time.Duration(ref.minV), time.Duration(ref.maxV))
	}
	qs := []float64{0, 0.25, 0.5, 0.75, 0.99, 1}
	if n := ref.total; n > 0 && n <= 8 {
		qs = qs[:0]
		for k := int64(0); k <= n; k++ {
			qs = append(qs, float64(k)/float64(n))
		}
	}
	for _, q := range qs {
		if g, w := d.Quantile(q), ref.quantile(q); g != w {
			t.Fatalf("digest %d: q=%.3f: %v, dense %v", i, q, g, w)
		}
	}
}
