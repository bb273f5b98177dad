package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"middlewhere/internal/obs"
)

// setUp starts the stack over an already generated city and registers
// the probe subscriptions and, where the workload has them, the room
// subscriptions.
func setUp(wl workload, o options, c *city) (*run, error) {
	st, err := newStack(c, wl.federated)
	if err != nil {
		return nil, err
	}
	r, err := newRun(wl, o, c, st)
	if err == nil && wl.roomSubs {
		err = r.subscribeRooms()
	}
	if err == nil {
		err = r.subscribeProbes()
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return r, nil
}

// runWorkload executes one workload once: set-up, fill and warm-up,
// the measured window, final flush and verification; a traced run
// splits the window into an untraced and a traced part and adds the
// layer walk.
//
// setup_s is the time to generate the city and its reading sequence
// from the seed plus the time to start the daemons, register the
// sensors, open both connections and the stream and register the
// subscriptions. Generation is seconds of deterministic computation
// and runs once; the stack part is milliseconds and noisy, so it runs
// o.setups times (each a fresh stack, the last one kept) and its
// median is taken.
func runWorkload(wl workload, o options) (*result, error) {
	t0 := time.Now()
	c, err := newCity(o.size, o.seed)
	if err != nil {
		return nil, err
	}
	cityS := time.Since(t0).Seconds()
	var (
		r      *run
		stackS []float64
	)
	for i := 0; i < o.setups; i++ {
		if r != nil {
			r.st.close()
		}
		t0 = time.Now()
		if r, err = setUp(wl, o, c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		stackS = append(stackS, time.Since(t0).Seconds())
	}
	defer r.st.close()
	sort.Float64s(stackS)
	setupS := cityS + quantileSorted(stackS, 0.5)
	setupNote := fmt.Sprintf("city %.3fs + stack %.4fs (median of %d)", cityS, quantileSorted(stackS, 0.5), o.setups)

	r.dog = startWatchdog(stallTimeout, dieOnStall(wl.name))
	defer r.dog.close()
	if err := r.fill(); err != nil {
		return nil, err
	}
	r.load(warmAtRate)
	whole0 := readObs(obs.Default())

	var (
		seg, untraced *segment
		traced        obsDelta
		spans         *spanLog
	)
	if !o.traced {
		seg = r.measure(o.window)
	} else {
		// The untraced part is the baseline the traced part's cost is
		// compared with; both see the same load.
		untraced = r.measure(o.window / 4)
		spans = newSpanLog()
		r.tr.Store(spans)
		traced.from = readObs(obs.Default())
		obs.SetEnabled(true)
		seg = r.measure(o.window / 2)
		obs.SetEnabled(false)
		traced.to = readObs(obs.Default())
		r.tr.Store(nil)
	}
	if err := r.st.stream.Flush(flushTimeout); err != nil {
		r.fail(1, "final flush: %v", err)
	}
	r.verify(whole0)

	values, notes := r.endToEnd(seg)
	values["setup_s"], notes["setup_s"] = setupS, setupNote
	specs := endToEnd
	if o.traced {
		walk, err := runWalk(r.c, spans)
		if err != nil {
			return nil, err
		}
		p1, err := capacityP1(r.c, o, o.window/4)
		if err != nil {
			return nil, err
		}
		r.layers(seg, untraced, traced, walk, values, notes)
		values["runtime.ingest_readings_per_s_p1"] = p1
		specs = perLayer
		path := filepath.Join(o.outDir, "trace-"+wl.name+".json")
		if err := spans.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		notes["client.walk_coverage_frac"] = "spans in " + path
	}
	metrics, err := assemble(specs, values, !o.traced)
	if err != nil {
		return nil, err
	}
	failed := r.failed.Load()
	return &result{
		Correct:   failed == 0,
		Attempted: r.attempted.Load(),
		Failed:    failed,
		Metrics:   metrics,
		notes:     notes,
		values:    values,
	}, nil
}

// cpuPerReading is process CPU (user+system) per acknowledged reading
// over a segment, in microseconds. The generator's encode is part of
// the pipeline, so it is deliberately included.
func cpuPerReading(seg *segment) float64 {
	return ratio(float64((seg.proc1.cpu-seg.proc0.cpu).Nanoseconds())/1e3, float64(seg.acked))
}

// endToEnd computes the user-visible metrics of one measured segment.
func (r *run) endToEnd(seg *segment) (map[string]float64, map[string]string) {
	v := map[string]float64{
		"ingest_readings_per_s": ratio(float64(seg.acked), seg.elapsed.Seconds()),
		"cpu_us_per_reading":    cpuPerReading(seg),
		"query_ops_per_s":       ratio(float64(seg.queries), seg.elapsed.Seconds()),
	}
	notes := map[string]string{
		"ingest_readings_per_s": fmt.Sprintf("%d readings acked in %.2fs", seg.acked, seg.elapsed.Seconds()),
		"query_ops_per_s":       fmt.Sprintf("%d queries", seg.queries),
	}
	if r.wl.streamRate > 0 {
		notes["ingest_readings_per_s"] += fmt.Sprintf(", offered %.0f/s", r.wl.streamRate)
	}
	if !r.wl.closedQueries {
		notes["query_ops_per_s"] += fmt.Sprintf(", offered %.0f/s", canaryRate/2)
	}
	series := map[string]*samples{
		"ingest_ack": &seg.ack, "notify_stream": seg.notifyStream, "notify_rpc": seg.notifyRPC,
		"locate": &seg.locate, "prob": &seg.prob, "region": &seg.region,
	}
	for _, name := range latencySeries {
		s := series[name]
		label, tail, _ := s.tail()
		note := fmt.Sprintf("n=%d %s=%.1f", s.n(), label, tail)
		v[name+"_p50_us"], notes[name+"_p50_us"] = s.percentile(0.5), note
		v["client."+name+"_p50_us"], notes["client."+name+"_p50_us"] = s.percentile(0.5), note
		v["client."+name+"_p95_us"] = s.percentile(0.95)
	}
	return v, notes
}

// layers adds the per-layer metrics of a traced run to values: the
// walk's, the program's own counters over the traced window, the
// runtime's, and the generator's.
func (r *run) layers(seg, untraced *segment, od obsDelta, walk, v map[string]float64, notes map[string]string) {
	for name, value := range walk {
		v[name] = value
	}
	acked := float64(seg.acked)
	v["remote.credit_stalls"] = float64(seg.stalls)
	v["mwrpc.frame_encode_p50_us"] = od.quantile("mwrpc_frame_encode_us", 0.5)
	v["mwrpc.frame_decode_p50_us"] = od.quantile("mwrpc_frame_decode_us", 0.5)
	v["mwrpc.bytes_per_reading"] = ratio(od.counter("mwrpc_bytes_sent_total"), acked)

	cuts := od.counter("spatialdb_snapshots_total")
	hits := od.counter("spatialdb_snapshot_pool_hits")
	v["spatialdb.clones_per_cut"] = ratio(od.counter("spatialdb_snapshot_clones_total"), cuts)
	v["spatialdb.capture_retries"] = od.counter("spatialdb_snapshot_capture_retries_total")
	v["spatialdb.escalations"] = od.counter("spatialdb_snapshot_escalations_total")
	v["spatialdb.cut_wait_p99_us"] = od.quantile("spatialdb_cut_wait_us", 0.99)
	v["spatialdb.pool_hit_ratio"] = ratio(hits, hits+cuts)
	v["spatialdb.trigger_matches_per_reading"] = ratio(od.counter("spatialdb_trigger_matches_total"), acked)
	v["rtree.node_visits_per_query"] = ratio(od.gauge("rtree_node_visits"), od.counter("spatialdb_queries_total"))

	v["fusion.lattice_nodes_p50"] = od.quantile("fusion_lattice_nodes", 0.5)
	v["fusion.lattice_evals_per_reading"] = ratio(od.counter("fusion_lattice_evals_total"), acked)

	v["core.trigger_eval_p50_us"] = od.quantile("core_trigger_eval_us", 0.5)
	v["core.trigger_evals_per_reading"] = ratio(od.counter("core_trigger_evals_total"), acked)
	v["core.notify_queue_p50_us"] = od.quantile("core_notify_us", 0.5)
	v["core.notify_drops"] = od.counter("core_notify_drops_total")
	inline, pooled := od.counter("core_pool_inline_total"), od.counter("core_pool_tasks_total")
	v["core.pool_inline_ratio"] = ratio(inline, inline+pooled)
	cacheHits, cacheMisses := od.counter("core_cache_hits_total"), od.counter("core_cache_misses_total")
	v["core.cache_hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)

	v["fed.forward_p50_us"] = od.quantile("stage_fed_forward_us", 0.5)
	v["fed.forwarded_frac"] = ratio(od.counter("fed_forwarded_readings_total"), acked)
	v["fed.migrations"] = od.counter("fed_migrations_total")
	v["fed.fallback_local"] = od.counter("fed_ingest_fallback_local_total")
	v["fed.partial_results"] = od.counter("fed_partial_results_total")

	tracedCPU, plainCPU := cpuPerReading(seg), cpuPerReading(untraced)
	v["obs.trace_overhead_frac"] = ratio(tracedCPU, plainCPU) - 1
	notes["obs.trace_overhead_frac"] = fmt.Sprintf("%.2f us/reading traced, %.2f untraced", tracedCPU, plainCPU)

	p0, p1 := seg.proc0, seg.proc1
	v["runtime.allocs_per_reading"] = ratio(float64(p1.mallocs-p0.mallocs), acked)
	v["runtime.alloc_bytes_per_reading"] = ratio(float64(p1.bytes-p0.bytes), acked)
	v["runtime.gc_cpu_frac"] = ratio(p1.gcCPU-p0.gcCPU, (p1.cpu - p0.cpu).Seconds())
	v["runtime.gc_pause_p99_us"] = pauseQuantileUs(p0, p1, 0.99)
	v["runtime.heap_live_mb"] = float64(p1.heapLive) / 1e6
	v["runtime.goroutines_peak"] = float64(r.dog.goroutines.Load())

	lag := samples{us: append(append([]float64(nil), seg.streamLag.us...), seg.sideLag.us...)}
	v["client.sched_lag_p99_us"] = lag.percentile(0.99)
	notes["client.sched_lag_p99_us"] = fmt.Sprintf("n=%d open-loop operations", lag.n())

	// What the walk's stages add up to for one reading of this
	// workload, against what a reading actually cost: the stream's
	// path, plus conn 2's canary spread over the readings of a second.
	// The rest is framing, pushes, scheduling, syscalls, the collector
	// — and, on query-mix, the closed-loop queries, which the walk does
	// not try to price.
	stages := walk["remote.encode_us_per_reading"] + walk["remote.decode_us_per_reading"] +
		v["fed.forwarded_frac"]*walk["fed.wire_us_per_reading"]
	if r.wl.roomSubs {
		stages += walk["core.ingest_subs_us_per_reading"]
	} else {
		stages += walk["core.ingest_nosubs_us_per_reading"]
	}
	if !r.wl.closedQueries {
		mix := canaryMix
		if r.wl.streamRate == 0 {
			mix = canaryMixNoScan
		}
		cost := map[int]float64{
			qRPCProbe: walk["core.ingest_single_us"], qLocate: walk["core.locate_cold_us"],
			qProb: walk["core.locate_cold_us"], qRegion: walk["core.region_us"],
		}
		var cycle float64
		for _, kind := range mix {
			cycle += cost[kind]
		}
		stages += ratio(cycle*canaryRate/float64(len(mix)), acked/seg.elapsed.Seconds())
	}
	v["client.walk_coverage_frac"] = ratio(stages, plainCPU)
}
