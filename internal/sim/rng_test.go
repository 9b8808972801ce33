package sim

import (
	"math/rand"
	"testing"
)

var rngSink *RNG

// An RNG that never draws never builds its math/rand source: NewRNG
// allocates the RNG alone.
func TestNewRNGIsLazy(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { rngSink = NewRNG(7) }); a != 1 {
		t.Fatalf("NewRNG allocates %.0f objects, want 1", a)
	}
}

// Building the source on the first draw changes no sequence: draws
// match an eagerly seeded math/rand source.
func TestLazyRNGMatchesEagerSource(t *testing.T) {
	const seed = 42
	g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			if a, b := g.Float64(), ref.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v, want %v", i, a, b)
			}
		} else if a, b := g.Intn(1000), ref.Intn(1000); a != b {
			t.Fatalf("draw %d: Intn %d, want %d", i, a, b)
		}
	}
}

func TestStreamSeedDeterministic(t *testing.T) {
	a := StreamSeed(1, "fig6", 3)
	b := StreamSeed(1, "fig6", 3)
	if a != b {
		t.Fatalf("StreamSeed not deterministic: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("StreamSeed returned negative seed %d", a)
	}
}

func TestStreamSeedKeySensitivity(t *testing.T) {
	base := StreamSeed(1, "fig6", 3)
	for name, other := range map[string]int64{
		"base seed": StreamSeed(2, "fig6", 3),
		"name":      StreamSeed(1, "fig7", 3),
		"index":     StreamSeed(1, "fig6", 4),
	} {
		if other == base {
			t.Errorf("changing %s did not change the stream seed", name)
		}
	}
}
