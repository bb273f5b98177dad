package core

import (
	"sync"

	"middlewhere/internal/obs"
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

// workerPool fans the region scans' per-object work (ObjectsInRegion,
// OccupancyHeatmap) across a bounded set of goroutines. Submission
// never blocks: when every worker is busy and the queue is full the
// task runs inline on the submitting goroutine, so a fan-out makes
// progress however busy the workers are.
type workerPool struct {
	tasks chan func()
	stop  chan struct{}
	done  sync.WaitGroup

	// closeMu orders submission against close: a task queued while the
	// read lock is held is in the channel before close() fires the
	// workers' stop-drain, so no accepted task can be orphaned in the
	// buffered queue (which would block fanOutChunked's WaitGroup
	// forever).
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
			// Drain queued tasks so no fan-out waits forever, then exit.
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

// fanOutChunked splits indexes 0..n-1 into at most `chunks` contiguous
// ranges, runs each range as one pool task, and returns once every
// range has finished. For fine-grained per-item work (a warm-cache
// region query costs well under a microsecond per object) this
// amortizes the scheduling handoff over the whole range instead of
// paying it per item. A range that cannot be queued immediately runs
// on the caller, so the fan-out makes progress even with a saturated
// (or closed) pool.
func (p *workerPool) fanOutChunked(n, chunks int, fn func(int)) {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	step := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := c*step, min((c+1)*step, n)
		task := func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
		if !p.trySubmit(task) {
			mPoolInline.Inc()
			task()
		}
	}
	wg.Wait()
}
