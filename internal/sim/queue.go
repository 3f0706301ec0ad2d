package sim

// Queue is a bounded FIFO channel between simulated processes. Get blocks
// the calling process while the queue is empty; Put blocks while it is
// full. Waiters are released in FIFO order, keeping simulations
// deterministic. A capacity of 0 means unbounded.
//
// Items and waiter lists live in ring buffers: steady-state operation
// reuses one backing array per ring, and vacated slots are zeroed so a
// drained queue of pointer elements (e.g. *Chunk) retains nothing.
type Queue[T any] struct {
	env     *Env
	cap     int
	items   Ring[T]
	getters Ring[*Proc]
	putters Ring[*Proc]
}

// NewQueue creates a queue in env with the given capacity (0 = unbounded).
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

func (q *Queue[T]) full() bool { return q.cap > 0 && q.items.Len() >= q.cap }

// wakeGetter releases the longest-waiting getter, if any, at the current
// instant (a typed wakeup: no allocation, no heap round-trip).
func (q *Queue[T]) wakeGetter() {
	if q.getters.Len() > 0 {
		q.env.wake(q.getters.PopFront(), q.env.now)
	}
}

// wakePutter releases the longest-waiting putter, if any.
func (q *Queue[T]) wakePutter() {
	if q.putters.Len() > 0 {
		q.env.wake(q.putters.PopFront(), q.env.now)
	}
}

// Put appends v, blocking p while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	p.mustBlock("Queue.Put")
	for q.full() {
		q.putters.PushBack(p)
		p.yield()
	}
	q.items.PushBack(v)
	q.wakeGetter()
}

// TryPut appends v if there is room and reports whether it did. It never
// blocks, so it is also safe to call from scheduler context.
func (q *Queue[T]) TryPut(v T) bool {
	if q.full() {
		return false
	}
	q.items.PushBack(v)
	q.wakeGetter()
	return true
}

// Get removes and returns the head item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	p.mustBlock("Queue.Get")
	for q.items.Len() == 0 {
		q.getters.PushBack(p)
		p.yield()
	}
	v := q.items.PopFront()
	q.wakePutter()
	return v
}

// Await is the task half of Get: it removes and returns the head item
// if there is one; otherwise it registers task p as a getter, so p's
// step runs again when an item arrives, and reports false.
func (q *Queue[T]) Await(p *Proc) (v T, ok bool) {
	p.mustArm("Queue.Await")
	if v, ok = q.TryGet(); !ok {
		q.getters.PushBack(p)
	}
	return v, ok
}

// TryGet removes and returns the head item without blocking. ok is false
// if the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.Len() == 0 {
		return v, false
	}
	v = q.items.PopFront()
	q.wakePutter()
	return v, true
}

// DrainAppend removes at most n items, appends them to dst, and returns
// the extended slice, waking at most n blocked putters. Callers that
// drain repeatedly (the master's gather step) pass a reused buffer so
// the steady state allocates nothing.
func (q *Queue[T]) DrainAppend(dst []T, n int) []T {
	if n > q.items.Len() {
		n = q.items.Len()
	}
	for i := 0; i < n; i++ {
		dst = append(dst, q.items.PopFront())
		q.wakePutter()
	}
	return dst
}

// DrainUpTo removes and returns at most n items without blocking.
func (q *Queue[T]) DrainUpTo(n int) []T {
	if n > q.items.Len() {
		n = q.items.Len()
	}
	if n == 0 {
		return nil
	}
	return q.DrainAppend(make([]T, 0, n), n)
}
