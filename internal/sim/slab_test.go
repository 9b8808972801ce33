package sim

import "testing"

// TestSlabValuesStayPutAndTakesStayApart: values never move when the
// slab grows, a Take's slice cannot be appended into its neighbour,
// and n values cost about log2(n) chunks.
func TestSlabValuesStayPutAndTakesStayApart(t *testing.T) {
	var s Slab[int]
	a := s.New() // the chunk of 1
	*a = 7
	s.New()
	s.New()           // the chunk of 2 is full
	w := s.Take(2)    // the chunk of 4: two values for w,
	next := s.Take(1) // one for next, and one slot left over
	if len(w) != 2 || cap(w) != 2 {
		t.Fatalf("Take(2) gave len %d cap %d", len(w), cap(w))
	}
	w[0], w[1] = 10, 11
	w = append(w, 99) // must reallocate, not write into next
	if next[0] != 0 {
		t.Fatalf("appending to a window wrote %d into the next one", next[0])
	}
	for i := 0; i < 100; i++ {
		*s.New() = -1
	}
	if *a != 7 || w[0] != 10 || w[1] != 11 {
		t.Fatalf("values moved: %d, %v", *a, w)
	}

	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[[4]int64]
		for i := 0; i < 1000; i++ {
			s.New()
		}
	})
	// Chunks of 1, 2, 4, ..., 512 hold 1,023 values.
	if allocs > 11 {
		t.Errorf("1,000 values cost %.0f allocations, want about 10 chunks", allocs)
	}
}

// TestSlabChunksStopDoublingAtTheCap: past 64 KiB a slab's chunks stop
// doubling, so 10^4 values of 384 bytes (a fleet tenant's size) reserve
// less than one chunk beyond what they use; uncapped doubling would
// reserve 16,383 slots for them.
func TestSlabChunksStopDoublingAtTheCap(t *testing.T) {
	type value [384]byte
	const n = 10_000
	var s Slab[value]
	var reserved, chunks int
	var last *value
	for i := 0; i < n; i++ {
		v := s.New()
		if &s.chunk[0] != last { // a new chunk
			last = &s.chunk[0]
			reserved += cap(s.chunk)
			chunks++
			if bytes := cap(s.chunk) * len(value{}); bytes > slabChunkBytes {
				t.Fatalf("chunk %d holds %d bytes, cap is %d", chunks, bytes, slabChunkBytes)
			}
		}
		v[0] = 1
	}
	perChunk := slabChunkBytes / len(value{})
	if unused := reserved - n; unused >= perChunk {
		t.Errorf("%d values reserve %d slots: %d unused, want fewer than one chunk (%d)", n, reserved, unused, perChunk)
	}
	// Chunks of 1, 2, ..., 128 values (8 chunks, 255 values), then
	// chunks of 170 values (64 KiB / 384 bytes) for the rest.
	if want := 8 + (n-255+perChunk-1)/perChunk; chunks != want {
		t.Errorf("%d values took %d chunks, want %d", n, chunks, want)
	}
}
