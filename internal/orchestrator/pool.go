package orchestrator

// WorkerPool is a global VM-worker budget shared by every campaign of a
// multi-campaign command. `-parallelism` has always bounded the workers of
// one campaign; when several campaigns run concurrently (report all, costs)
// each would otherwise bring its own budget and the command would run at
// campaigns×parallelism. A single pool threaded through Config.Workers
// keeps the command-wide concurrency at exactly the requested parallelism
// no matter how many campaigns are in flight.
//
// The pool is a plain counting semaphore: a campaign holds a slot for the
// duration of one fanned-out VM-hour or traceroute, or of one whole inline
// round or traceroute batch (campaign.fanOut), so slots freed by a campaign
// draining its round barrier are immediately usable by another campaign
// mid-round. Determinism is unaffected — results are
// indexed by deterministic task order and emitted serially per campaign —
// so the pool only changes scheduling, never bytes.
type WorkerPool struct {
	sem chan struct{}
}

// NewWorkerPool returns a pool with the given number of slots (minimum 1).
func NewWorkerPool(slots int) *WorkerPool {
	if slots < 1 {
		slots = 1
	}
	return &WorkerPool{sem: make(chan struct{}, slots)}
}

// acquire takes a pool slot and release returns it. Both are no-ops on a
// nil pool, so call sites can bracket unconditionally.
func (p *WorkerPool) acquire() {
	if p != nil {
		p.sem <- struct{}{}
	}
}

func (p *WorkerPool) release() {
	if p != nil {
		<-p.sem
	}
}

// Wrap returns fn bracketed by a pool slot; on a nil pool, fn itself.
func (p *WorkerPool) Wrap(fn func(int) error) func(int) error {
	if p == nil {
		return fn
	}
	return func(i int) error {
		p.acquire()
		defer p.release()
		return fn(i)
	}
}
