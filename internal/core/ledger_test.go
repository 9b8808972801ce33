package core

// linearState classifies a linear-ledger slot.
type linearState uint8

const (
	linearFree linearState = iota
	linearIdle
	linearActive
)

// linearSlot is one flow of the linear ledger.
type linearSlot struct {
	vt    Work
	gen   uint32
	state linearState
}

// linearLedger is the reference the FlowIndex must match: the pre-index
// DisengagedFairQueueing bookkeeping, restated over the same
// slab-with-generations handles. Charge is O(1), but every system
// virtual-time advance scans all flows — min over active, then an eager
// idle catch-up — the O(all tenants) cost profile the index replaces.
type linearLedger struct {
	slab  []linearSlot
	free  []uint32
	sysVT Work
}

func (l *linearLedger) Add() FlowID {
	var i uint32
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		i = uint32(len(l.slab))
		l.slab = append(l.slab, linearSlot{gen: 1})
	}
	s := &l.slab[i]
	s.vt = l.sysVT
	s.state = linearIdle
	return FlowID{idx: i, gen: s.gen}
}

func (l *linearLedger) Remove(id FlowID) {
	s := l.slot(id)
	if s == nil {
		return
	}
	s.gen++
	s.state = linearFree
	l.free = append(l.free, id.idx)
}

func (l *linearLedger) SetActive(id FlowID, active bool) {
	s := l.slot(id)
	if s == nil {
		return
	}
	if active {
		if s.state == linearIdle && s.vt < l.sysVT {
			s.vt = l.sysVT
		}
		s.state = linearActive
	} else {
		s.state = linearIdle
	}
}

func (l *linearLedger) Active(id FlowID) bool {
	s := l.slot(id)
	return s != nil && s.state == linearActive
}

func (l *linearLedger) Charge(id FlowID, delta Work) {
	s := l.slot(id)
	if s == nil {
		return
	}
	if s.state == linearIdle && s.vt < l.sysVT {
		s.vt = l.sysVT
	}
	s.vt += delta
}

func (l *linearLedger) VT(id FlowID) Work {
	s := l.slot(id)
	if s == nil {
		return 0
	}
	if s.state == linearIdle && s.vt < l.sysVT {
		return l.sysVT
	}
	return s.vt
}

func (l *linearLedger) Lead(id FlowID) Work {
	if lead := l.VT(id) - l.sysVT; lead > 0 {
		return lead
	}
	return 0
}

// AdvanceSysVT is the linear ledger's defining cost: one pass over the
// whole slab for the active minimum, and a second for the idle
// catch-up.
func (l *linearLedger) AdvanceSysVT() Work {
	first := true
	var min Work
	for i := range l.slab {
		s := &l.slab[i]
		if s.state != linearActive {
			continue
		}
		if first || s.vt < min {
			min = s.vt
			first = false
		}
	}
	if !first && min > l.sysVT {
		l.sysVT = min
	}
	for i := range l.slab {
		s := &l.slab[i]
		if s.state == linearIdle && s.vt < l.sysVT {
			s.vt = l.sysVT
		}
	}
	return l.sysVT
}

func (l *linearLedger) Len() int {
	return len(l.slab) - len(l.free)
}

func (l *linearLedger) ActiveLen() int {
	n := 0
	for i := range l.slab {
		if l.slab[i].state == linearActive {
			n++
		}
	}
	return n
}

func (l *linearLedger) slot(id FlowID) *linearSlot {
	if int(id.idx) >= len(l.slab) {
		return nil
	}
	s := &l.slab[id.idx]
	if s.gen != id.gen || s.state == linearFree {
		return nil
	}
	return s
}
