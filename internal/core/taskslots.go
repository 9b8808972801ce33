package core

import "repro/internal/neon"

// taskSlots holds a scheduler's per-task records in a slice indexed by
// neon.Task.ID, which a kernel assigns densely from 0: a lookup is an
// index, and admitting a task allocates nothing once the slice has
// grown past its ID. A pointer to a record stays valid until the next
// add.
type taskSlots[R any] struct {
	recs []taskSlot[R]
}

type taskSlot[R any] struct {
	rec  R
	live bool // admitted and not exited
}

// get returns the task's record, or nil if it has none.
func (s *taskSlots[R]) get(t *neon.Task) *R {
	if id := int(t.ID); id < len(s.recs) && s.recs[id].live {
		return &s.recs[id].rec
	}
	return nil
}

// add gives the task a zero record and returns it.
func (s *taskSlots[R]) add(t *neon.Task) *R {
	id := int(t.ID)
	for len(s.recs) <= id {
		s.recs = append(s.recs, taskSlot[R]{})
	}
	s.recs[id] = taskSlot[R]{live: true}
	return &s.recs[id].rec
}

// remove drops the task's record, if any.
func (s *taskSlots[R]) remove(t *neon.Task) {
	if s.get(t) != nil {
		s.recs[t.ID] = taskSlot[R]{}
	}
}
