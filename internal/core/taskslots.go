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

// flowTask is the part of a task's record that both fair-queueing
// schedulers keep: the task's flow in their ledger, its fleet
// principal, and whether it is denied the current run.
type flowTask struct {
	flow   FlowID
	pid    PrincipalID
	denied bool
}

func (f *flowTask) base() *flowTask { return f }

// fairQueue is the bookkeeping DisengagedFairQueueing and
// OracleFairQueueing share: their Ledger, a record R per task whose
// embedded flowTask P reaches, and the reusable episode entries. Both
// embed it, for TaskExited, VirtualTime, Denied and the lead-bound
// record.
type fairQueue[R any, P interface {
	*R
	base() *flowTask
}] struct {
	ledger  Ledger
	st      taskSlots[R]
	fleet   FleetVT // interns each task's principal; nil on one device
	entries []Entry
}

// admit gives the task its record, its flow and, with a fleet, its
// principal.
func (q *fairQueue[R, P]) admit(t *neon.Task) *R {
	r := q.st.add(t)
	f := P(r).base()
	f.flow = q.ledger.Add()
	if q.fleet != nil {
		f.pid = q.fleet.Principal(t.Name)
	}
	return r
}

// TaskExited implements neon.Scheduler.
func (q *fairQueue[R, P]) TaskExited(t *neon.Task) {
	if r := q.st.get(t); r != nil {
		q.ledger.Remove(P(r).base().flow)
	}
	q.st.remove(t)
}

// VirtualTime returns the task's virtual time in normalized work, for
// tests.
func (q *fairQueue[R, P]) VirtualTime(t *neon.Task) Work {
	if r := q.st.get(t); r != nil {
		return q.ledger.VT(P(r).base().flow)
	}
	return 0
}

// Denied reports whether the task is excluded from the current run.
func (q *fairQueue[R, P]) Denied(t *neon.Task) bool {
	r := q.st.get(t)
	return r != nil && P(r).base().denied
}

// MaxLead, LeadViolations and LeadBound report the ledger's lead-bound
// record (Ledger.LeadBound).
func (q *fairQueue[R, P]) MaxLead() Work         { return q.ledger.MaxLead() }
func (q *fairQueue[R, P]) LeadViolations() int64 { return q.ledger.LeadViolations() }
func (q *fairQueue[R, P]) LeadBound() Work       { return q.ledger.LeadBound() }
