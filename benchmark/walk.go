package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/remote"
)

const (
	// walkBatches batches are timed per stage; walkSettle untimed ones
	// precede them wherever state was just rebuilt.
	walkBatches = 150
	walkSettle  = 30
	walkCalls   = 300 // single calls timed per stage
)

// walker times each layer's public functions in-process on the same
// generated batches the workloads send, one call at a time, and
// records a span per call. It is the part of the per-layer ledger that
// does not depend on the workload: what each stage costs alone.
type walker struct {
	c    *city
	tr   *spanLog
	next int // next batch of the sequence to use
	m    map[string]float64
}

// nextBatch returns the next batch, freshly stamped.
func (w *walker) nextBatch() []model.Reading {
	b, _ := w.c.batch(w.next)
	w.next++
	stamp(b, time.Now())
	return b
}

// timed runs fn, records it as a span under parent and returns how
// long it took.
func (w *walker) timed(name string, trace uint64, parent int, fn func()) (time.Duration, int) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	return t1.Sub(t0), w.tr.add(name, trace, parent, t0, t1)
}

// fill stores the first fillSteps steps through store, untimed, so
// the reading rings are full.
func (w *walker) fill(store func([]model.Reading) error) error {
	for w.next = 0; w.next < w.c.fillBatches(); {
		if err := store(w.nextBatch()); err != nil {
			return err
		}
	}
	return nil
}

// newService starts an in-process Location Service with the city's
// sensors registered.
func (w *walker) newService() (*core.Service, error) {
	svc, err := core.New(w.c.bld)
	if err != nil {
		return nil, err
	}
	ids, specs := w.c.sensorSpecs()
	for i, id := range ids {
		if err := svc.RegisterSensor(id, specs[i]); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return svc, nil
}

func usPer(total time.Duration, n int) float64 {
	return ratio(float64(total.Nanoseconds())/1e3, float64(n))
}

// runWalk executes every stage and returns its metrics by per-layer
// name.
func runWalk(c *city, tr *spanLog) (map[string]float64, error) {
	w := &walker{c: c, tr: tr, m: make(map[string]float64)}
	for _, stage := range []func() error{w.codec, w.store, w.triggers, w.fedWire, w.adapters, w.wire} {
		if err := stage(); err != nil {
			return nil, fmt.Errorf("walk: %w", err)
		}
	}
	return w.m, nil
}

// codec: the client's batch encoder and the daemon's decoder.
func (w *walker) codec() error {
	var (
		enc, dec time.Duration
		readings int
		payloads [][]byte
		buf      []byte
	)
	w.next = 0
	for i := 0; i < walkBatches; i++ {
		b := w.nextBatch()
		d, _ := w.timed("remote.AppendReadings", uint64(i), -1, func() { buf = remote.AppendReadings(buf[:0], b) })
		enc += d
		readings += len(b)
		payloads = append(payloads, append([]byte(nil), buf...))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, p := range payloads {
		var err error
		d, _ := w.timed("remote.DecodeReadings", uint64(i), -1, func() { _, _, _, err = remote.DecodeReadings(p) })
		if err != nil {
			return err
		}
		dec += d
	}
	runtime.ReadMemStats(&ms1)
	w.m["remote.encode_us_per_reading"] = usPer(enc, readings)
	w.m["remote.decode_us_per_reading"] = usPer(dec, readings)
	w.m["remote.decode_allocs_per_reading"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(readings))
	return nil
}

// store: the spatial database's batch insert alone, then the Location
// Service's ingest on top of it without subscriptions, plus the
// read-side calls that run against that steady-state table.
func (w *walker) store() error {
	db, err := w.c.bld.NewDB()
	if err != nil {
		return err
	}
	ids, specs := w.c.sensorSpecs()
	for i, id := range ids {
		if err := db.RegisterSensor(id, specs[i]); err != nil {
			return err
		}
	}
	insert := func(b []model.Reading) error {
		_, err := db.InsertReadings(b, nil)
		return err
	}
	if err := w.fill(insert); err != nil {
		return err
	}
	insertDur := make([]time.Duration, walkBatches)
	var insertTotal time.Duration
	readings := 0
	for i := range insertDur {
		b := w.nextBatch()
		t0 := time.Now()
		if err := insert(b); err != nil {
			return err
		}
		insertDur[i] = time.Since(t0)
		insertTotal += insertDur[i]
		readings += len(b)
	}
	w.m["spatialdb.insert_us_per_reading"] = usPer(insertTotal, readings)

	svc, err := w.newService()
	if err != nil {
		return err
	}
	defer svc.Close()
	if err := w.fill(svc.IngestBatch); err != nil {
		return err
	}
	// fill rewound the sequence: the timed batches below are the ones
	// the bare insert stored above.
	var ingest time.Duration
	for i := 0; i < walkBatches; i++ {
		b := w.nextBatch()
		var err error
		d, id := w.timed("core.IngestBatch", uint64(i), -1, func() { err = svc.IngestBatch(b) })
		if err != nil {
			return err
		}
		ingest += d
		// The bare insert of this batch ran in its own execution above;
		// linked as the child, it makes the span's self time the
		// service's share.
		w.tr.addDur("spatialdb.InsertReadings", uint64(i), id, insertDur[i])
	}
	// Cuts and heatmaps come after, each behind an untimed batch: a cut
	// makes every person's next write copy their reading ring, which
	// must not land in the ingest timing above.
	var cut, heat samples
	for i := 0; i < walkBatches; i++ {
		if err := svc.IngestBatch(w.nextBatch()); err != nil {
			return err
		}
		d, _ := w.timed("spatialdb.Snapshot", uint64(i), -1, func() { svc.DB().Snapshot().Close() })
		cut.add(d)
		// Right after a write the fused-location cache is cold for the
		// people just written: the heatmap's worst case.
		floor := glob.MustParse(w.c.floors[i%len(w.c.floors)])
		var err error
		d, _ = w.timed("core.OccupancyHeatmap", uint64(i), -1, func() {
			_, err = svc.OccupancyHeatmap(floor, w.c.size.rows, w.c.size.cols)
		})
		if err != nil {
			return err
		}
		heat.add(d)
	}
	w.m["core.ingest_nosubs_us_per_reading"] = usPer(ingest, readings)
	w.m["spatialdb.snapshot_cut_p50_us"] = cut.percentile(0.5)
	w.m["core.heatmap_p50_us"] = heat.percentile(0.5)
	return w.reads(svc)
}

// reads times the query-side calls on a service in steady state,
// writing one batch between calls as the workloads' writers do.
func (w *walker) reads(svc *core.Service) error {
	db := svc.DB()
	universe := db.Universe()
	var candidates, region, cold, warm, from, prob, build time.Duration
	for i := 0; i < walkCalls; i++ {
		b := w.nextBatch()
		if err := svc.IngestBatch(b); err != nil {
			return err
		}
		// A person of the batch just written: the first locate misses
		// the fused-location cache, the second hits it.
		person := b[i%len(b)].MObjectID
		var err error
		d, _ := w.timed("core.LocateObject", uint64(i), -1, func() { _, err = svc.LocateObject(person) })
		if err != nil {
			return err
		}
		cold += d
		d, _ = w.timed("core.LocateObject", uint64(i), -1, func() { _, err = svc.LocateObject(person) })
		if err != nil {
			return err
		}
		warm += d

		// The pieces of that cold locate, on the same live rows.
		now := time.Now()
		rows := db.LatestPerSensor(person, now)
		specs, _ := db.SensorSnapshot()
		var readings []fusion.Reading
		d, _ = w.timed("fusion.FromReadings", uint64(i), -1, func() {
			readings = fusion.FromReadings(rows, specs, now, universe.Area())
		})
		from += d
		room, err := db.ResolveGLOB(glob.MustParse(w.c.rooms[i%len(w.c.rooms)]))
		if err != nil {
			return err
		}
		d, _ = w.timed("fusion.ProbRegion", uint64(i), -1, func() { fusion.ProbRegion(universe, readings, room) })
		prob += d
		d, _ = w.timed("fusion.Build", uint64(i), -1, func() { _, err = fusion.Build(universe, readings).Infer() })
		if err != nil {
			return err
		}
		build += d

		floor := glob.MustParse(w.c.floors[i%len(w.c.floors)])
		rect, err := db.ResolveGLOB(floor)
		if err != nil {
			return err
		}
		snap := db.Snapshot()
		d, _ = w.timed("spatialdb.SupportCandidates", uint64(i), -1, func() { snap.SupportCandidates(rect) })
		snap.Close()
		candidates += d
		d, _ = w.timed("core.ObjectsInRegion", uint64(i), -1, func() { _, err = svc.ObjectsInRegion(floor, regionMinProb) })
		if err != nil {
			return err
		}
		region += d
	}
	w.m["spatialdb.support_candidates_us"] = usPer(candidates, walkCalls)
	w.m["core.region_us"] = usPer(region, walkCalls)
	w.m["core.locate_cold_us"] = usPer(cold, walkCalls)
	w.m["core.locate_warm_us"] = usPer(warm, walkCalls)
	w.m["fusion.from_readings_us"] = usPer(from, walkCalls)
	w.m["fusion.prob_region_us"] = usPer(prob, walkCalls)
	w.m["fusion.build_us"] = usPer(build, walkCalls)
	return nil
}

// triggers: the same ingest with a subscription on every room, so the
// difference to the subscription-free ingest is the trigger path
// (matching, snapshot cut, fusion per firing, notifier hand-off).
func (w *walker) triggers() error {
	svc, err := w.newService()
	if err != nil {
		return err
	}
	defer svc.Close()
	if err := w.fill(svc.IngestBatch); err != nil {
		return err
	}
	for _, room := range w.c.rooms {
		if _, err := svc.Subscribe(core.Subscription{
			Region: glob.MustParse(room), MinProb: regionMinProb, Handler: func(core.Notification) {},
		}); err != nil {
			return err
		}
	}
	for i := 0; i < walkSettle; i++ {
		if err := svc.IngestBatch(w.nextBatch()); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ingest time.Duration
	readings := 0
	for i := 0; i < walkBatches; i++ {
		b := w.nextBatch()
		var err error
		d, _ := w.timed("core.IngestBatch+subs", uint64(i), -1, func() { err = svc.IngestBatch(b) })
		if err != nil {
			return err
		}
		ingest += d
		readings += len(b)
	}
	runtime.ReadMemStats(&ms1)
	w.m["core.ingest_subs_us_per_reading"] = usPer(ingest, readings)
	w.m["core.ingest_subs_bytes_per_reading"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(readings))

	var single time.Duration
	for i := 0; i < walkCalls; i++ {
		b := w.nextBatch()
		var err error
		d, _ := w.timed("core.Ingest", uint64(i), -1, func() { err = svc.Ingest(b[0]) })
		if err != nil {
			return err
		}
		single += d
	}
	w.m["core.ingest_single_us"] = usPer(single, walkCalls)
	return nil
}

// fedWire: a batch's round trip through the federation's JSON reading
// form, as a forwarded batch pays it.
func (w *walker) fedWire() error {
	var total time.Duration
	readings := 0
	for i := 0; i < walkBatches; i++ {
		b := w.nextBatch()
		var err error
		d, _ := w.timed("fed.ReadingWire", uint64(i), -1, func() {
			var body []byte
			if body, err = json.Marshal(fed.IngestArgs{Readings: fed.ToWireBatch(b)}); err != nil {
				return
			}
			var back fed.IngestArgs
			if err = json.Unmarshal(body, &back); err != nil {
				return
			}
			_, err = fed.FromWireBatch(back.Readings)
		})
		if err != nil {
			return err
		}
		total += d
		readings += len(b)
	}
	w.m["fed.wire_us_per_reading"] = usPer(total, readings)
	return nil
}

// discard is a batch sink that stores nothing.
type discard struct{}

func (discard) IngestBatch([]model.Reading) error { return nil }

// adapters: a Ubisense adapter emitting fixes into a batcher, the
// sensor-side cost that precedes the measured path.
func (w *walker) adapters() error {
	batcher := adapter.NewBatcher(discard{}, batchSize)
	ubi, err := adapter.NewUbisense(ubiSensor(0), glob.MustParse(w.c.floors[0]), carryProb, batcher, nil, adapter.Options{})
	if err != nil {
		return err
	}
	const fixes = walkBatches * batchSize
	now := time.Now()
	d, _ := w.timed("adapter.ReportFix", 0, -1, func() {
		for i := 0; i < fixes; i++ {
			if err = ubi.ReportFix(w.c.people[i%len(w.c.people)], geom.Pt(roomW/2, roomH/2), now); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	w.m["adapter.emit_us_per_reading"] = usPer(d, fixes)
	return batcher.Close()
}

// wire: round trips to an idle daemon over loopback — the no-op frame
// that floors every RPC, and Locate beside the same call in-process so
// that the difference is what the wire adds.
func (w *walker) wire() error {
	st, err := newStack(w.c, false)
	if err != nil {
		return err
	}
	defer st.close()
	send := func(b []model.Reading) error {
		for {
			err := st.stream.Send(b)
			if !errors.Is(err, mwrpc.ErrNoCredit) {
				return err
			}
			time.Sleep(creditBackoff)
		}
	}
	if err := w.fill(send); err != nil {
		return err
	}
	if err := st.stream.Flush(flushTimeout); err != nil {
		return err
	}
	var hello, remoteLocate, localLocate samples
	svc := st.svcs[0]
	for i := 0; i < walkCalls; i++ {
		var err error
		d, _ := w.timed("mwrpc.hello", uint64(i), -1, func() { err = st.sub.Probe() })
		if err != nil {
			return err
		}
		hello.add(d)
		person := w.c.people[i%len(w.c.people)]
		// Warm the cache so both sides below time the same work.
		if _, err = svc.LocateObject(person); err != nil {
			return err
		}
		d, id := w.timed("remote.Locate", uint64(i), -1, func() { _, err = st.sub.Locate(person) })
		if err != nil {
			return err
		}
		remoteLocate.add(d)
		d, _ = w.timed("core.LocateObject", uint64(i), id, func() { _, err = svc.LocateObject(person) })
		if err != nil {
			return err
		}
		localLocate.add(d)
	}
	w.m["mwrpc.hello_rtt_p50_us"] = hello.percentile(0.5)
	w.m["remote.locate_wire_share_us"] = remoteLocate.percentile(0.5) - localLocate.percentile(0.5)
	return nil
}

// capacityP1 measures the pipelined stream's capacity into a fresh
// single daemon with the whole process on one processor: the
// single-threaded baseline for ingest_readings_per_s.
func capacityP1(c *city, o options, d time.Duration) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wl, _ := workloadByName("ingest-stream")
	r, err := setUp(wl, o, c)
	if err != nil {
		return 0, err
	}
	defer r.st.close()
	r.dog = startWatchdog(stallTimeout, dieOnStall("ingest-stream at GOMAXPROCS=1"))
	defer r.dog.close()
	if err := r.fill(); err != nil {
		return 0, err
	}
	r.noScan = true
	seg := r.load(d)
	if err := r.st.stream.Flush(flushTimeout); err != nil {
		return 0, err
	}
	if r.failed.Load() > 0 {
		return 0, errors.New("capacity pass: operations failed")
	}
	return ratio(float64(seg.acked), seg.elapsed.Seconds()), nil
}
