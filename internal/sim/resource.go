package sim

// Resource is a counting semaphore in virtual time with FIFO queuing. It
// models contended execution resources such as guest VCPUs: a holder that
// blocks on I/O should Release while waiting and re-Acquire afterwards.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	queue    []*Proc
}

// NewResource returns a resource with the given capacity (units).
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire takes one unit on behalf of p, blocking in virtual time until a
// unit is available. Waiters are served strictly first-come-first-served.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.block()
	// Our unit was transferred to us by Release before the wakeup.
}

// TryAcquire takes a unit if one is free without blocking; it reports
// whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If processes are queued, the unit passes
// directly to the longest waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if len(r.queue) > 0 {
		next := r.queue[0]
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
		r.env.scheduleProc(0, next)
		return // unit handed over, inUse unchanged
	}
	r.inUse--
}
