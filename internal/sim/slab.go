package sim

import "unsafe"

// slabChunkBytes caps the size a Slab's chunks double up to.
const slabChunkBytes = 64 << 10

// Slab hands out values of T from chunks: the first chunk holds one
// value and each later one twice the last, until a chunk holds 64 KiB
// of values; every chunk after that is the same size. So an owner of
// one or two values pays what new(T) would, n values cost about log2(n)
// allocations up to the cap and one per capped chunk past it, and the
// capacity a slab reserves but has not handed out is less than one
// chunk. Values never move and are never freed one by one: a chunk
// lives while any of its values is reachable. The zero Slab is ready to
// use.
type Slab[T any] struct {
	chunk []T
}

// New returns a pointer to a zero T.
func (s *Slab[T]) New() *T {
	return &s.Take(1)[0]
}

// Take returns n contiguous zero values (n >= 1) as a slice whose
// capacity is n, so appending to it never writes into a neighbour.
func (s *Slab[T]) Take(n int) []T {
	if cap(s.chunk)-len(s.chunk) < n {
		var zero T
		limit := max(1, slabChunkBytes/max(1, int(unsafe.Sizeof(zero))))
		s.chunk = make([]T, 0, max(min(2*cap(s.chunk), limit), n))
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}
