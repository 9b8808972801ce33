package sim

// Pool is a LIFO free list over a Slab: Get hands back the value Put
// last, or a fresh zero value from the slab when none is free. The
// caller sets up a fresh value and resets a recycled one, so the pool
// knows nothing of T. Made counts the values the slab has given, so
// Made minus len(Free) is the number out of the pool. The zero Pool is
// ready to use.
type Pool[T any] struct {
	free []*T
	slab Slab[T]
	made int
}

// Get returns the value Put last, or a fresh zero one; fresh reports
// which.
func (p *Pool[T]) Get() (v *T, fresh bool) {
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		p.free = p.free[:n-1]
		return v, false
	}
	p.made++
	return p.slab.New(), true
}

// Put returns v to the pool: the next Get hands it back.
func (p *Pool[T]) Put(v *T) { p.free = append(p.free, v) }

// Made returns the number of values the pool has taken from its slab.
func (p *Pool[T]) Made() int { return p.made }

// Free returns the values in the pool, the next Get's last. The caller
// must not modify it.
func (p *Pool[T]) Free() []*T { return p.free }
