package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/remote"
)

// Fixed load constants. Rates are offered load, not targets to tune:
// they were set once from the capacities measured at the commit that
// introduced the benchmark (README.md) and stay fixed so that later
// commits are compared under the same traffic.
const (
	cityStreamRate = 4000.0 // readings/s on notify-city and query-mix
	fedStreamRate  = 5000.0 // readings/s on fed-mix

	// canaryRate operations/s run on conn 2 of every workload whose
	// conn 2 has no heavier job, in the repeating pattern canaryMix:
	// 40 single-RPC probe readings, 20 region scans, 10 Locate and 10
	// ProbInRegion a second — few enough to cost the workload a few
	// percent of a core, enough to give every user-visible latency a
	// few hundred samples under that workload's load.
	canaryRate = 80.0
	// rpcProbeEvery: the closed-loop query mix sends one RPC probe per
	// this many queries (about 40/s at the mix's seed-commit rate).
	rpcProbeEvery = 100
	// ackEvery: the pipelined stream waits for the acknowledgement of
	// one batch in this many, which carries the probe reading.
	ackEvery = 64

	streamProbes   = 8 // probe objects riding the stream, round-robin
	rpcProbeObject = "probe-rpc"
	regionMinProb  = 0.5

	// fillSteps sequence steps are replayed as fast as the credit
	// window allows before any load is timed (city.fillBatches).
	fillSteps = 64
	// warmAtRate is how long the workload's own load then runs
	// unmeasured, so queues and caches settle at the offered rate.
	warmAtRate = time.Second

	flushTimeout  = 10 * time.Second
	creditBackoff = 100 * time.Microsecond
)

// Conn 2's operations.
const (
	qRPCProbe = iota
	qLocate
	qProb
	qRegion
)

var (
	canaryMix = []int{qRPCProbe, qLocate, qRPCProbe, qRegion, qRPCProbe, qProb, qRPCProbe, qRegion}
	// canaryMixNoScan replaces the region scans by Locate and
	// ProbInRegion; see regionTail.
	canaryMixNoScan = []int{qRPCProbe, qLocate, qRPCProbe, qProb, qRPCProbe, qLocate, qRPCProbe, qProb}
)

// regionTail: beside the pipelined stream the canary runs without
// region scans, and the scans get the last regionTail of the window to
// themselves, with only region_p50_us taken from that stretch. Every
// scan cuts a snapshot, after which every person's next write copies
// their 64-row ring; with every person written hundreds of times a
// second that costs ~25 ms of CPU per scan, and 20 scans a second took
// a quarter of the stream's capacity at the seed commit. What a reader
// sees while the write path is saturated is worth knowing; letting it
// set the write path's capacity number is not.
const regionTail = 5 * time.Second

// workload is one traffic mix.
type workload struct {
	name, why string
	// federated runs a registry and two daemons instead of one.
	federated bool
	// streamRate is the offered load of conn 1's reading stream in
	// readings/s, one batch in flight; 0 means a pipelined closed loop
	// limited only by the stream's credit window.
	streamRate float64
	// roomSubs registers a subscription per room on conn 2 at set-up.
	roomSubs bool
	// closedQueries makes conn 2 a closed loop over the query mix
	// instead of the canary schedule.
	closedQueries bool
}

var workloads = []workload{
	{
		name: "ingest-stream",
		why:  "write path alone at capacity: pipelined closed-loop stream, no room subscriptions, so codec, framing and insert do all the work",
	},
	{
		name:       "notify-city",
		why:        "the paper's Fig. 9 under city load: 4000 readings/s into 384 room subscriptions; trigger matching, fusion and push dominate",
		streamRate: cityStreamRate,
		roomSubs:   true,
	},
	{
		name:          "query-mix",
		why:           "reads beside writes: closed-loop Locate/ProbInRegion/ObjectsInRegion against 4000 readings/s; snapshot cuts and fusion cache dominate",
		streamRate:    cityStreamRate,
		closedQueries: true,
	},
	{
		name:       "fed-mix",
		why:        "two federated daemons: half of 5000 readings/s is forwarded as JSON, objects migrate, region scans fan out and merge",
		federated:  true,
		streamRate: fedStreamRate,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one execution's inputs.
type options struct {
	size   citySize
	seed   int64
	window time.Duration // measured window
	traced bool
	setups int    // how many times the stack is set up (the median is reported)
	outDir string // where a traced run writes its spans
}

// segment is what one stretch of load produced.
type segment struct {
	elapsed      time.Duration
	acked        uint64 // readings the daemon acknowledged storing
	proc0, proc1 procSnap
	stalls       int // Sends refused for lack of credit

	ack                samples // batch due time -> Flush returned
	locate, prob       samples
	region             samples
	notifyStream       *samples
	notifyRPC          *samples
	queries            int     // Locate, ProbInRegion and region scans completed
	streamLag, sideLag samples // how late each open-loop generator ran
}

// series returns the latency series of one query kind.
func (seg *segment) series(kind int) *samples {
	switch kind {
	case qLocate:
		return &seg.locate
	case qProb:
		return &seg.prob
	default:
		return &seg.region
	}
}

// run is one execution of one workload.
type run struct {
	wl workload
	c  *city
	st *stack

	truth  *truth
	probes *probeMatcher
	dog    *watchdog
	tr     atomic.Pointer[spanLog] // set only inside a traced window

	// Conn 1's goroutine only.
	streamRng    *rand.Rand
	nextBatch    int
	sentReadings uint64
	probeSeq     int
	probeBufs    [][]model.Reading

	// Conn 2's goroutine only. people are the indices a Locate or
	// ProbInRegion may name while the stream runs; noScan selects the
	// canary pattern without region scans.
	sideRng *rand.Rand
	people  []int
	ops     int
	noScan  bool

	attempted     atomic.Int64
	failed        atomic.Int64
	failureSample sync.Once
}

func newRun(wl workload, o options, c *city, st *stack) (*run, error) {
	r := &run{
		wl: wl, c: c, st: st,
		truth:     newTruth(c),
		probes:    newProbeMatcher(),
		streamRng: rand.New(rand.NewSource(o.seed + 2)),
		sideRng:   rand.New(rand.NewSource(o.seed + 3)),
	}
	for i := 0; i < 4; i++ {
		r.probeBufs = append(r.probeBufs, make([]model.Reading, 0, batchSize+1))
	}
	// Locate and ProbInRegion are answered from the entry daemon's own
	// rows, and a person's rows follow their readings to the daemon
	// owning the floor: while the stream runs, only people who never
	// leave the entry daemon's floors are safe to ask about there.
	entryFloors := len(c.floors)
	if wl.federated {
		entryFloors /= 2
	}
	away := make([]bool, len(c.people))
	for _, m := range c.meta {
		if int(m.floor) >= entryFloors {
			away[m.person] = true
		}
	}
	for i, gone := range away {
		if !gone {
			r.people = append(r.people, i)
		}
	}
	if len(r.people) == 0 {
		return nil, fmt.Errorf("seed %d: nobody stays on the entry daemon's floors", o.seed)
	}
	return r, nil
}

// fail counts n failed operations and shows the first cause.
func (r *run) fail(n int, format string, args ...interface{}) {
	r.failed.Add(int64(n))
	r.failureSample.Do(func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %s\n", r.wl.name, fmt.Sprintf(format, args...))
	})
}

// ---------------------------------------------------------------------------
// Subscriptions (conn 2)

// subscribeRooms registers one entry-semantics subscription per room,
// watching every object.
func (r *run) subscribeRooms() error {
	for _, room := range r.c.rooms {
		_, err := r.st.sub.Subscribe(remote.SubscribeArgs{Region: room, MinProb: regionMinProb},
			func(remote.NotificationDTO) {})
		if err != nil {
			return fmt.Errorf("subscribe %s: %w", room, err)
		}
	}
	return nil
}

// subscribeProbes registers an every-reading subscription over floor 0
// for each probe object; its handler matches the notification to the
// probe that provoked it.
func (r *run) subscribeProbes() error {
	arm := func(kind, object string) error {
		_, err := r.st.sub.Subscribe(remote.SubscribeArgs{
			Region: r.c.floors[0], Object: object, EveryReading: true,
		}, func(n remote.NotificationDTO) {
			recv := time.Now()
			evalAt, err := time.Parse(time.RFC3339Nano, n.Time)
			if err != nil {
				r.fail(1, "notification time %q: %v", n.Time, err)
				return
			}
			if due, ok := r.probes.notified(kind, object, evalAt, recv); ok {
				r.tr.Load().add("client.notify_"+kind, uint64(due.UnixNano()), -1, due, recv)
				r.dog.tick()
			}
		})
		return err
	}
	for k := 0; k < streamProbes; k++ {
		if err := arm("stream", fmt.Sprintf("probe-%d", k)); err != nil {
			return err
		}
	}
	return arm("rpc", rpcProbeObject)
}

// ---------------------------------------------------------------------------
// Conn 1: the reading stream

// stamp sets every reading's observation time to now: readings are
// fresh when sent, as a live sensor's would be.
func stamp(rs []model.Reading, now time.Time) {
	for i := range rs {
		rs[i].Time = now
	}
}

// send hands one batch to the stream, backing off while the credit
// window is exhausted.
func (r *run) send(seg *segment, batch []model.Reading) error {
	for {
		err := r.st.stream.Send(batch)
		if !errors.Is(err, mwrpc.ErrNoCredit) {
			return err
		}
		seg.stalls++
		time.Sleep(creditBackoff)
	}
}

// sendPipelined sends the next batch without waiting for its ack.
func (r *run) sendPipelined(seg *segment) {
	batch, lo := r.c.batch(r.nextBatch)
	seq := uint64(r.nextBatch)
	r.nextBatch++
	now := time.Now()
	stamp(batch, now)
	r.attempted.Add(int64(len(batch)))
	if err := r.send(seg, batch); err != nil {
		r.fail(len(batch), "stream send: %v", err)
		return
	}
	r.tr.Load().add("client.send", seq, -1, now, time.Now())
	r.sentReadings += uint64(len(batch))
	r.truth.sent(lo, len(batch), now)
	r.dog.tick()
}

// sendAcked sends the next batch with a probe reading at a seeded
// random position in it — a probe is a typical reading, not the
// batch's last — and waits for the acknowledgement, timing both from
// due.
func (r *run) sendAcked(seg *segment, due time.Time) {
	seqBatch, lo := r.c.batch(r.nextBatch)
	seq := uint64(r.nextBatch)
	r.nextBatch++
	now := time.Now()
	stamp(seqBatch, now)

	object := fmt.Sprintf("probe-%d", r.probeSeq%streamProbes)
	at := r.streamRng.Intn(len(seqBatch) + 1)
	batch := append(r.probeBufs[r.probeSeq%len(r.probeBufs)][:0], seqBatch[:at]...)
	batch = append(batch, r.c.probeReading(object, now))
	batch = append(batch, seqBatch[at:]...)
	r.probeSeq++
	r.probes.sent(object, due, now)

	r.attempted.Add(int64(len(batch)))
	err := r.send(seg, batch)
	sent := time.Now()
	if err == nil {
		r.sentReadings += uint64(len(batch))
		r.truth.sent(lo, len(seqBatch), now)
		err = r.st.stream.Flush(flushTimeout)
	}
	end := time.Now()
	if err != nil {
		r.fail(len(batch), "stream batch: %v", err)
		return
	}
	seg.ack.add(end.Sub(due))
	r.dog.tick()
	if tr := r.tr.Load(); tr != nil {
		root := tr.add("client.batch", seq, -1, due, end)
		tr.add("client.send", seq, root, now, sent)
		tr.add("client.ack_wait", seq, root, sent, end)
	}
}

// stream is conn 1's generator for one stretch of load. At a fixed
// rate every batch is acknowledged before the next is sent (the stream
// exposes no per-batch ack hook, and a sender that is behind does not
// wait for the schedule). The pipelined loop keeps the credit window
// full and waits for an acknowledgement only on every ackEvery-th
// batch, which then has a whole window queued ahead of it.
func (r *run) stream(seg *segment, start, end time.Time) {
	if r.wl.streamRate == 0 {
		for i := 1; time.Now().Before(end); i++ {
			if i%ackEvery == 0 {
				r.sendAcked(seg, time.Now())
			} else {
				r.sendPipelined(seg)
			}
		}
		return
	}
	p := newPacer(start, r.wl.streamRate/batchSize)
	for {
		due := p.next()
		if !due.Before(end) {
			break
		}
		r.sendAcked(seg, due)
	}
	seg.streamLag = p.lag
}

// ---------------------------------------------------------------------------
// Conn 2: probes and queries

// op runs one conn 2 operation of the given kind, timed from due.
func (r *run) op(seg *segment, kind int, due time.Time) {
	var (
		err  error
		name string
	)
	r.attempted.Add(1)
	switch kind {
	case qRPCProbe:
		// The notification, not the RPC's return, ends this one: the
		// subscriber's handler records it.
		now := time.Now()
		r.probes.sent(rpcProbeObject, due, now)
		if err := r.st.sub.Ingest(r.c.probeReading(rpcProbeObject, now)); err != nil {
			r.fail(1, "rpc ingest: %v", err)
			return
		}
		r.dog.tick()
		return
	case qLocate:
		name = "client.locate"
		_, err = r.st.sub.Locate(r.c.people[r.people[r.sideRng.Intn(len(r.people))]])
	case qProb:
		name = "client.prob"
		person := r.c.people[r.people[r.sideRng.Intn(len(r.people))]]
		_, _, err = r.st.sub.ProbInRegion(person, r.c.rooms[r.sideRng.Intn(len(r.c.rooms))])
	default:
		name = "client.region"
		_, err = r.regionQuery(r.c.floors[r.sideRng.Intn(len(r.c.floors))])
	}
	end := time.Now()
	if err != nil {
		r.fail(1, "%s: %v", name, err)
		return
	}
	seg.series(kind).add(end.Sub(due))
	seg.queries++
	r.tr.Load().add(name, uint64(seg.queries), -1, due, end)
	r.dog.tick()
}

// regionQuery asks who is on a floor: the federated scan on a
// federated stack (a partial answer is an error), the local one
// otherwise.
func (r *run) regionQuery(floor string) (map[string]float64, error) {
	if !r.wl.federated {
		return r.st.sub.ObjectsInRegion(floor, regionMinProb)
	}
	rep, err := r.st.sub.FedObjectsInRegion(floor, regionMinProb, true)
	if err == nil && len(rep.Unavailable) > 0 {
		err = fmt.Errorf("shards unavailable: %s", strings.Join(rep.Unavailable, ","))
	}
	return rep.Objects, err
}

// side is conn 2's generator for one stretch of load: the canary
// schedule, open loop, or the closed-loop query mix — a seeded
// 2 Locate : 1 ProbInRegion : 1 region scan, with an RPC probe every
// rpcProbeEvery-th operation.
func (r *run) side(seg *segment, start, end time.Time) {
	if r.wl.closedQueries {
		mix := [4]int{qLocate, qLocate, qProb, qRegion}
		for now := time.Now(); now.Before(end); now = time.Now() {
			r.ops++
			if r.ops%rpcProbeEvery == 0 {
				r.op(seg, qRPCProbe, now)
			} else {
				r.op(seg, mix[r.sideRng.Intn(len(mix))], now)
			}
		}
		return
	}
	mix := canaryMix
	if r.noScan {
		mix = canaryMixNoScan
	}
	p := newPacer(start, canaryRate)
	for {
		due := p.next()
		if !due.Before(end) {
			break
		}
		r.op(seg, mix[r.ops%len(mix)], due)
		r.ops++
	}
	seg.sideLag = p.lag
}

// ---------------------------------------------------------------------------
// Phases

// fill replays the first fillSteps steps through the stream as fast as
// the credit window allows and waits for the last ack.
func (r *run) fill() error {
	var seg segment
	for r.nextBatch < r.c.fillBatches() {
		r.sendPipelined(&seg)
	}
	if r.failed.Load() > 0 {
		return errors.New("fill: stream send failed")
	}
	return r.st.stream.Flush(flushTimeout)
}

// measure runs the workload's load for d and returns what it produced.
// Beside the pipelined stream the region scans are confined to the
// last regionTail, or the last quarter of a short d (see regionTail).
func (r *run) measure(d time.Duration) *segment {
	if r.wl.streamRate > 0 {
		return r.load(d)
	}
	tail := regionTail
	if tail > d/4 {
		tail = d / 4
	}
	r.noScan = true
	seg := r.load(d - tail)
	r.noScan = false
	seg.region = r.load(tail).region
	return seg
}

// load runs the workload's two generators for d and returns what they
// produced.
func (r *run) load(d time.Duration) *segment {
	seg := &segment{}
	accepted0 := r.st.stream.Stats().Accepted
	seg.proc0 = readProc()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.stream(seg, start, end)
	}()
	go func() {
		defer wg.Done()
		r.side(seg, start, end)
	}()
	wg.Wait()
	seg.elapsed = time.Since(start)
	seg.proc1 = readProc()
	seg.acked = r.st.stream.Stats().Accepted - accepted0
	r.probes.drain()
	seg.notifyStream = r.probes.take("stream")
	seg.notifyRPC = r.probes.take("rpc")
	return seg
}
