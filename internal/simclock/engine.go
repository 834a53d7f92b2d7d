package simclock

// Handler is one scheduled event. Hot event kinds implement it on an
// object they already allocate (a segment in flight, a retransmission
// timer), so scheduling them costs no extra heap object.
type Handler interface{ Fire(now Time) }

// Func adapts a plain callback to Handler. A func value is
// pointer-shaped, so storing Func(fn) in a Handler does not allocate.
type Func func(now Time)

// Fire calls f(now).
func (f Func) Fire(now Time) { f(now) }

// event is one queued Handler, stored by value; seq breaks time ties in
// schedule order, which is what makes a run replayable.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// arity is the heap's fan-out. On the hero storms a 4-ary heap makes
// half the element moves of a binary one for the same ~20 comparisons
// per event.
const arity = 4

// Engine is the discrete-event engine every event-driven plane runs on:
// a virtual clock plus a min-heap of events ordered by (instant,
// schedule order). The embedded Clock keeps its samplers, so a sampler
// at boundary T runs before any event at T. The zero Engine is empty and
// at virtual time zero. Not safe for concurrent use.
type Engine struct {
	Clock
	q      []event
	seq    uint64
	popped int
}

// Schedule enqueues fn at instant at, clamped to now.
func (e *Engine) Schedule(at Time, fn func(now Time)) { e.ScheduleHandler(at, Func(fn)) }

// ScheduleHandler enqueues h at instant at, clamped to now: an event
// never runs in the past.
func (e *Engine) ScheduleHandler(at Time, h Handler) {
	e.seq++
	ev := event{at: max(at, e.now), seq: e.seq, h: h}
	e.q = append(e.q, ev)
	i := len(e.q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&e.q[p]) {
			break
		}
		e.q[i] = e.q[p]
		i = p
	}
	e.q[i] = ev
}

// Len reports the number of pending events.
func (e *Engine) Len() int { return len(e.q) }

// Events reports how many events have fired.
func (e *Engine) Events() int { return e.popped }

// Run fires events in order until none are left.
func (e *Engine) Run() {
	for len(e.q) > 0 {
		e.step()
	}
}

// RunUntil fires every event at or before horizon, then moves the clock
// to horizon. Later events stay queued.
func (e *Engine) RunUntil(horizon Time) {
	for len(e.q) > 0 && e.q[0].at <= horizon {
		e.step()
	}
	if horizon > e.now {
		e.AdvanceTo(horizon)
	}
}

// step pops the earliest event, advances the clock to it (running any
// samplers on the way) and fires it.
func (e *Engine) step() {
	top := e.q[0]
	n := len(e.q) - 1
	last := e.q[n]
	e.q[n] = event{} // drop the handler reference
	e.q = e.q[:n]
	// Sift last down from the root past every child that precedes it.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m, end := c, min(c+arity, n)
		for j := c + 1; j < end; j++ {
			if e.q[j].before(&e.q[m]) {
				m = j
			}
		}
		if !e.q[m].before(&last) {
			break
		}
		e.q[i] = e.q[m]
		i = m
	}
	if n > 0 {
		e.q[i] = last
	}
	e.popped++
	e.AdvanceTo(top.at)
	top.h.Fire(top.at)
}
