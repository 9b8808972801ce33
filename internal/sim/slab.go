package sim

// Slab hands out values of T from doubling chunks: the first chunk
// holds one value and each later one twice the last, so n values cost
// about log2(n) allocations and an owner of one or two values pays
// what new(T) would. Values never move and are never freed one by
// one: a chunk lives while any of its values is reachable. The zero
// Slab is ready to use.
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
		s.chunk = make([]T, 0, max(2*cap(s.chunk), n))
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}
