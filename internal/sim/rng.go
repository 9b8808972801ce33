package sim

import "math/rand"

// RNG is a deterministic random source for model code. Every stochastic
// component (workload jitter, sampling randomization) must draw from an
// RNG seeded at construction so whole-simulation runs are reproducible.
//
// The math/rand source (about 5 KB) is built on the first draw, so a
// stream that never draws costs one small object.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// MakeRNG returns the generator NewRNG would, by value, for owners that
// hold their stream in place. Copy it only before its first draw.
func MakeRNG(seed int64) RNG { return RNG{seed: seed} }

// src returns the generator's source, seeding it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Fork derives an independent deterministic stream, keyed by id, from
// this generator's seed sequence. Use one stream per task so adding a
// task does not perturb the others' draws.
func (g *RNG) Fork(id int64) *RNG {
	return NewRNG(g.src().Int63() ^ id*0x6A09E667F3BCC909)
}

// ForkNamed derives an independent stream keyed by (name, index) from
// this generator's construction seed, without consuming any state. Unlike
// Fork, the result depends only on the key, never on how many draws this
// generator has made — so work scheduled in any order (e.g. scenarios on
// a parallel worker pool) receives identical streams.
func (g *RNG) ForkNamed(name string, index int) *RNG {
	return NewRNG(StreamSeed(g.seed, name, index))
}

// StreamSeed deterministically derives a child seed for a named stream
// (FNV-1a over the base seed, the name, and the index). Experiment
// scenarios use it so serial and parallel runs are byte-identical.
func StreamSeed(base int64, name string, index int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for i := 0; i < 8; i++ {
		mix(byte(uint64(base) >> (8 * i)))
	}
	for i := 0; i < len(name); i++ {
		mix(name[i])
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(index) >> (8 * i)))
	}
	// Keep the seed positive so it survives sources that reject negatives.
	return int64(h &^ (1 << 63))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
// frac must be in [0, 1].
func (g *RNG) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 {
		return d
	}
	scale := 1 + frac*(2*g.src().Float64()-1)
	return Duration(float64(d) * scale)
}
