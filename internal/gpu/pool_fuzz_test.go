package gpu

import (
	"fmt"
	"testing"
	"time"
)

// Request-pool fuzzer ops, one per input byte: the low three bits pick
// the op, the rest its channel and its pick among the fuzzer's requests.
const (
	fpStage       = iota // stage a request on the channel
	fpDoorbell           // store the channel's last staged reference (async doorbell)
	fpStep               // run the engine a few microseconds
	fpRelease            // release a finished request outside any hook
	fpHookRelease        // release an unfinished request in its completion hook
	fpPin                // pin a request not yet back in the pool
	fpUnpin              // drop a pin the fuzzer holds
	fpKill               // kill the channel's context and open a new one
)

// FuzzRequestPool decodes bytes into request operations on one device
// with one or two channels, each on its own context: Stage, the
// doorbell store, engine steps, Release outside a hook and inside the
// next completion's hook (which may stage the next request on the same
// channel, and rings its doorbell if the context is dead), Pin and
// Unpin, and KillContext. After every operation, and
// at every Stage, it checks the device's free pool against a
// test-local reference of each request's lifetime:
//   - no object that Stage hands out is pinned, staged, queued,
//     executing or in the middle of its finish;
//   - a request is in the pool, exactly once, when it has finished, its
//     owner released it and no pin holds it, and never otherwise;
//   - a staged request reads not done, with a closed gate.
//
// The wind-down kills every context, runs the engine dry, releases and
// unpins everything, and then every request has finished and the pool
// holds every object once.
func FuzzRequestPool(f *testing.F) {
	// A hook that releases and restages (BenchmarkRequestPathAsync's
	// shape) on both channels, a pinned watcher, and a kill mid-flight.
	f.Add([]byte{1, fpStage, 8 | fpStage, fpDoorbell, 8 | fpDoorbell, fpHookRelease | 0x80, 8 | fpHookRelease,
		fpStep, fpStep, fpPin, fpStep, fpRelease, fpUnpin, fpStage, fpDoorbell, 8 | fpKill, fpStep, fpRelease})
	f.Add([]byte{0, fpStage, fpStage, fpStage, fpDoorbell, fpPin, fpHookRelease, 0x10 | fpHookRelease, fpKill,
		fpRelease, fpRelease, fpUnpin, fpStage, fpDoorbell, fpStep, fpStep, fpRelease})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		newPoolFuzz(t, 1+int(data[0]&1)).run(data[1:])
	})
}

// life is the reference's record of one request: one hand-out of an
// object by Stage, until the pool takes the object back.
type life struct {
	r       *Request
	ch      *Channel
	hooked  bool // the completion hook has run: the request is finishing or finished
	done    bool // finish has returned (the hook ran and the gate opened)
	owned   bool // the owner has not released it yet
	pins    int  // pins the fuzzer holds
	inHook  bool // release it in its completion hook
	restage bool // and stage the next request on its channel there
	pooled  bool // the reference expects it in the pool
}

// poolFuzz is one fuzz case's rig: the device, its channels, and the
// reference.
type poolFuzz struct {
	t     *testing.T
	d     *Device
	chans []*Channel

	cur       map[*Request]*life // the current life of every object handed out
	lives     []*life            // every life not yet pooled, in hand-out order
	finishing *life              // the life whose hook is running or ran last
	hook      func(*Request)
	objects   int
	n         int  // the running op's index, -1 in the wind-down
	kind      byte // the running op
}

func newPoolFuzz(t *testing.T, chans int) *poolFuzz {
	_, d := testDev(t)
	z := &poolFuzz{t: t, d: d, cur: map[*Request]*life{}}
	for i := 0; i < chans; i++ {
		z.chans = append(z.chans, z.open(i))
	}
	z.hook = z.onDone
	return z
}

// fail reports a broken lifetime rule, naming the running op.
func (z *poolFuzz) fail(format string, args ...any) {
	z.t.Helper()
	where := "wind-down"
	if z.n >= 0 {
		where = fmt.Sprintf("op %d (kind %d)", z.n, z.kind)
	}
	z.t.Fatalf(where+": "+format, args...)
}

// open creates channel i on a context of its own.
func (z *poolFuzz) open(i int) *Channel {
	c, err := z.d.CreateContext(TaskID(i+1), "fuzz")
	if err != nil {
		z.t.Fatal(err)
	}
	ch, err := z.d.CreateChannel(c, Compute)
	if err != nil {
		z.t.Fatal(err)
	}
	return ch
}

func (z *poolFuzz) run(ops []byte) {
	for n, b := range ops {
		z.n, z.kind = n, b&7
		ci := int(b>>3) % len(z.chans)
		pick := int(b >> 4)
		switch z.kind {
		case fpStage:
			z.stage(z.chans[ci], sizeOf(b))
		case fpDoorbell:
			if st := z.chans[ci].StagedRequests(); len(st) > 0 {
				z.chans[ci].Reg.StoreAsync(z.d.eng, st[len(st)-1].Ref)
			}
		case fpStep:
			z.d.eng.RunFor(time.Duration(1+pick%4) * 5 * time.Microsecond)
		case fpRelease:
			if l := z.pickLife(pick, func(l *life) bool { return l.done && l.owned }); l != nil {
				z.release(l)
			}
		case fpHookRelease:
			if l := z.pickLife(pick, func(l *life) bool { return !l.hooked && l.owned && !l.inHook }); l != nil {
				l.inHook, l.restage = true, b&0x80 != 0
			}
		case fpPin:
			if l := z.pickLife(pick, func(*life) bool { return true }); l != nil {
				l.pins++
				l.r.Pin()
			}
		case fpUnpin:
			if l := z.pickLife(pick, func(l *life) bool { return l.pins > 0 }); l != nil {
				l.pins--
				l.r.Unpin()
				z.settle(l)
			}
		case fpKill:
			z.d.KillContext(z.chans[ci].Ctx)
			z.chans[ci] = z.open(ci)
		}
		z.finished()
		z.check()
	}
	z.n = -1
	for _, ch := range z.chans {
		z.d.KillContext(ch.Ctx)
	}
	z.chans = nil
	z.d.eng.Run()
	z.finished()
	for _, l := range append([]*life(nil), z.lives...) {
		if !l.done {
			z.fail("request %d never finished", l.r.ID)
		}
		for l.pins > 0 {
			l.pins--
			l.r.Unpin()
		}
		if l.owned {
			z.release(l)
		}
		z.settle(l)
	}
	z.check()
	if len(z.lives) != 0 || len(z.d.reqs.Free()) != z.objects || z.d.RequestsOut() != 0 {
		z.fail("%d requests outside the pool, pool %d of %d objects, %d out", len(z.lives), len(z.d.reqs.Free()), z.objects, z.d.RequestsOut())
	}
}

// sizeOf decodes a request size from an op byte: 1 to 8 µs, or Forever
// for one byte value in 32.
func sizeOf(b byte) time.Duration {
	if b>>3 == 31 {
		return Forever
	}
	return time.Duration(1+(b>>3)%8) * time.Microsecond
}

// pickLife returns the pick-th of the lives ok accepts, cyclically, or
// nil when it accepts none.
func (z *poolFuzz) pickLife(pick int, ok func(*life) bool) *life {
	var cands []*life
	for _, l := range z.lives {
		if ok(l) {
			cands = append(cands, l)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[pick%len(cands)]
}

// stage stages a request on ch and checks the object Stage hands out
// against the reference.
func (z *poolFuzz) stage(ch *Channel, size time.Duration) *Request {
	r := ch.Stage(size, Compute)
	if prev := z.cur[r]; prev == nil {
		z.objects++
	} else if !prev.pooled {
		z.fail("Stage handed out the object of request %d while it is live (%+v)", r.ID, *prev)
	}
	if r.IsDone() || r.DoneGate().IsOpen() || r.OnDone != nil {
		z.fail("staged request reads done %v, gate open %v, hooked %v", r.IsDone(), r.DoneGate().IsOpen(), r.OnDone != nil)
	}
	l := &life{r: r, ch: ch, owned: true}
	z.cur[r] = l
	z.lives = append(z.lives, l)
	r.OnDone = z.hook
	return r
}

// onDone is every request's completion hook. Finishes run one after
// another, never nested, so the life that finished before this one has
// left its finish by now.
func (z *poolFuzz) onDone(r *Request) {
	z.finished()
	l := z.cur[r]
	if l == nil || l.hooked {
		z.fail("completion hook ran for request %d outside one life (%v)", r.ID, l)
	}
	if r.pooled || inPool(z.d, r) {
		z.fail("request %d is in the pool during its own hook", r.ID)
	}
	l.hooked = true
	z.finishing = l
	if l.inHook {
		z.release(l)
		if r.pooled || inPool(z.d, r) {
			z.fail("request %d recycled inside its own hook", r.ID)
		}
		// Restage as BenchmarkRequestPathAsync does, on the request's
		// own channel. On a dead context, inside its kill or after it,
		// ring the doorbell too, so that the request finishes aborted:
		// the fuzzer's doorbell op reaches only live channels.
		if l.restage {
			next := z.stage(l.ch, time.Microsecond)
			if next == r {
				z.fail("the hook of request %d staged the same object", r.ID)
			}
			if l.ch.Ctx.Dead() {
				l.ch.Reg.StoreAsync(z.d.eng, next.Ref)
			}
		}
	}
}

// finished closes the finish of the life whose hook ran last: its gate
// has opened and finish's own pin is gone.
func (z *poolFuzz) finished() {
	if l := z.finishing; l != nil {
		z.finishing = nil
		if !l.r.DoneGate().IsOpen() {
			z.fail("request %d left its finish with a closed gate", l.r.ID)
		}
		l.done = true
		z.settle(l)
	}
}

// release is the owner's Release, applied to the request and the
// reference.
func (z *poolFuzz) release(l *life) {
	l.owned = false
	l.r.Release()
	z.settle(l)
}

// settle moves a life to the pool once the reference says it belongs
// there: finished, released and unpinned.
func (z *poolFuzz) settle(l *life) {
	if l.pooled || !l.done || l.owned || l.pins > 0 {
		return
	}
	l.pooled = true
	for i, x := range z.lives {
		if x == l {
			z.lives = append(z.lives[:i], z.lives[i+1:]...)
			break
		}
	}
}

// check compares the pool with the reference and every staged request
// with what a staged request reads.
func (z *poolFuzz) check() {
	z.t.Helper()
	seen := map[*Request]bool{}
	for _, r := range z.d.reqs.Free() {
		l := z.cur[r]
		if seen[r] {
			z.fail("the object of request %d is in the pool twice", r.ID)
		}
		seen[r] = true
		if l == nil || !l.pooled {
			z.fail("request %d is in the pool, the reference holds it live (%v)", r.ID, l)
		}
	}
	for r, l := range z.cur {
		if l.pooled && !seen[r] {
			z.fail("request %d finished, released and unpinned, but not in the pool", r.ID)
		}
	}
	for _, ch := range z.chans {
		for _, r := range ch.StagedRequests() {
			if l := z.cur[r]; l == nil || l.pooled {
				z.fail("staged request %d is not live in the reference", r.ID)
			}
			if r.IsDone() || r.DoneGate().IsOpen() {
				z.fail("staged request %d reads done %v, gate open %v", r.ID, r.IsDone(), r.DoneGate().IsOpen())
			}
		}
	}
}

// inPool reports whether r is in the device's pool.
func inPool(d *Device, r *Request) bool {
	for _, x := range d.reqs.Free() {
		if x == r {
			return true
		}
	}
	return false
}
