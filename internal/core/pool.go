package core

import (
	"sync"

	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// Pool metrics, cached once so submission stays a pure atomic.
var (
	mPoolTasks  = obs.Default().Counter("core_pool_tasks_total")
	mPoolInline = obs.Default().Counter("core_pool_inline_total")
	mPoolDepth  = obs.Default().Gauge("core_pool_queue_depth")
)

// parallelFanThreshold is the object count below which ObjectsInRegion
// stays serial: per-object evaluation is a few microseconds, so the
// scheduling handoff only pays for itself once a handful of objects
// can genuinely overlap.
const parallelFanThreshold = 8

// workerPool fans per-object work (ObjectsInRegion, batched trigger
// evaluation) across a bounded set of goroutines. Submission never
// blocks: when every worker is busy and the queue is full the task
// runs inline on the submitting goroutine, which keeps nested fan-out
// deadlock-free even when workers block on downstream channels (a
// trigger handler waiting on the notification queue, say).
type workerPool struct {
	tasks chan func()
	stop  chan struct{}
	done  sync.WaitGroup

	// closeMu orders submission against close: a task queued while the
	// read lock is held is in the channel before close() fires the
	// workers' stop-drain, so no accepted task can be orphaned in the
	// buffered queue (which would block fanOut's WaitGroup forever).
	closeMu sync.RWMutex
	closed  bool
}

func newWorkerPool(size int) *workerPool {
	if size < 1 {
		size = 1
	}
	p := &workerPool{
		tasks: make(chan func(), 2*size),
		stop:  make(chan struct{}),
	}
	p.done.Add(size)
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.done.Done()
	for {
		select {
		case fn := <-p.tasks:
			fn()
			mPoolDepth.Set(float64(len(p.tasks)))
		case <-p.stop:
			// Drain queued tasks so no fanOut waits forever, then exit.
			for {
				select {
				case fn := <-p.tasks:
					fn()
				default:
					return
				}
			}
		}
	}
}

func (p *workerPool) close() {
	p.closeMu.Lock()
	p.closed = true
	p.closeMu.Unlock()
	close(p.stop)
	p.done.Wait()
}

// trySubmit queues a task on the pool, reporting false when the queue
// is full or the pool is closed (the caller then runs the task
// inline). Holding the read lock across the send guarantees any
// accepted task precedes close(), so the workers' stop-drain runs it.
func (p *workerPool) trySubmit(task func()) bool {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- task:
		mPoolTasks.Inc()
		mPoolDepth.Set(float64(len(p.tasks)))
		return true
	default:
		return false
	}
}

// fanOut runs fn(0)..fn(n-1) across the pool and returns once all
// calls have finished. Tasks that cannot be queued immediately run on
// the caller, so fanOut makes progress even with a saturated (or
// closed) pool.
func (p *workerPool) fanOut(n int, fn func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		task := func() {
			defer wg.Done()
			fn(i)
		}
		if !p.trySubmit(task) {
			mPoolInline.Inc()
			task()
		}
	}
	wg.Wait()
}

// fanOutChunked splits indexes 0..n-1 into at most `chunks` contiguous
// ranges and runs each range as one pool task. For fine-grained
// per-item work (a warm-cache region query costs well under a
// microsecond per object) this amortizes the scheduling handoff over
// the whole range instead of paying it per item.
func (p *workerPool) fanOutChunked(n, chunks int, fn func(int)) {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	step := (n + chunks - 1) / chunks
	p.fanOut(chunks, func(c int) {
		lo := c * step
		hi := lo + step
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// dispatchStored is the service's database Dispatcher. It schedules
// only the objects with work — a matched trigger, a held subscription,
// or history on — deciding under one s.mu acquisition per batch, and
// runs each such object's stored readings through observeStored in
// reading order (entry/exit edge detection depends on it), fanning out
// across objects on the pool. Every entry carries the rows its own
// insert stored, so no snapshot is cut and no table is read.
func (s *Service) dispatchStored(stored []spatialdb.StoredReading) {
	var order []string
	var groups map[string][]*spatialdb.StoredReading
	s.mu.Lock()
	for i := range stored {
		ev := &stored[i]
		obj := ev.Reading.MObjectID
		g, ok := groups[obj]
		// Once an object has work, its later readings all go with it: an
		// earlier one may leave it held.
		if !ok && len(ev.Triggers) == 0 && s.history == nil && len(s.heldOf(obj)) == 0 {
			continue
		}
		if !ok {
			if groups == nil {
				groups = make(map[string][]*spatialdb.StoredReading, 8)
			}
			order = append(order, obj)
		}
		groups[obj] = append(g, ev)
	}
	s.mu.Unlock()
	run := func(i int) {
		for _, ev := range groups[order[i]] {
			s.observeStored(ev)
		}
	}
	if s.pool == nil || len(order) < 2 {
		for i := range order {
			run(i)
		}
		return
	}
	s.pool.fanOut(len(order), run)
}
