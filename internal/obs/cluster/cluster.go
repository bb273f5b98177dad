// Package cluster federates per-daemon observability into one honest
// view: it discovers the daemons of a deployment through the shard
// registry, scrapes each one's mw.stats snapshot, and merges the
// results — counters sum, gauges sum (version gauges take the max),
// and histograms merge bucket-wise so the cluster p99 is computed from
// the combined distribution rather than averaged from per-daemon
// quantiles (which would be statistically meaningless). Traces merge
// by ID, so one reading's hops across daemons render as a single span
// tree. mwctl stats -cluster and the registry's /metrics/cluster
// endpoint sit on top.
package cluster

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/registry"
	"middlewhere/internal/remote"
)

// Daemon is one scrape target.
type Daemon struct {
	Name string
	Addr string
}

// Scrape is one daemon's snapshot (or the error that prevented it).
type Scrape struct {
	Daemon Daemon
	Stats  remote.StatsDTO
	Err    error
}

// Discover lists a deployment's daemons from the registry: the union
// of the shard-placement map (federated daemons) and the service table
// (standalone daemons registered by name), deduplicated by name with
// the placement address winning — it is lease-heartbeaten and tracks
// restarts fastest.
func Discover(regAddr string) ([]Daemon, error) {
	reg, err := registry.Dial(regAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: registry dial: %w", err)
	}
	defer reg.Close()
	byName := make(map[string]string)
	if entries, err := reg.List(); err == nil {
		for _, e := range entries {
			byName[e.Name] = e.Addr
		}
	}
	p, err := reg.Placement()
	if err != nil {
		return nil, fmt.Errorf("cluster: placement fetch: %w", err)
	}
	for name, addr := range p.DaemonAddrs() {
		byName[name] = addr
	}
	out := make([]Daemon, 0, len(byName))
	for name, addr := range byName {
		out = append(out, Daemon{Name: name, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ScrapeAll fetches every daemon's mw.stats snapshot in parallel.
// traces caps the recent traces each daemon returns (0 = none). A
// failed scrape is reported in its slot, never dropped — the merge
// names unreachable daemons instead of silently under-counting.
func ScrapeAll(daemons []Daemon, traces int, timeout time.Duration) []Scrape {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	out := make([]Scrape, len(daemons))
	var wg sync.WaitGroup
	wg.Add(len(daemons))
	for i, d := range daemons {
		go func(i int, d Daemon) {
			defer wg.Done()
			out[i] = scrapeOne(d, traces, timeout)
		}(i, d)
	}
	wg.Wait()
	return out
}

func scrapeOne(d Daemon, traces int, timeout time.Duration) Scrape {
	cli, err := mwrpc.DialOptions(d.Addr, mwrpc.Options{
		DialTimeout: timeout,
		CallTimeout: timeout,
	})
	if err != nil {
		return Scrape{Daemon: d, Err: err}
	}
	defer cli.Close()
	var st remote.StatsDTO
	if err := mwrpc.CallJSON(cli, "mw.stats", "", remote.StatsArgs{Traces: traces}, &st); err != nil {
		return Scrape{Daemon: d, Err: err}
	}
	return Scrape{Daemon: d, Stats: st}
}

// Merge folds per-daemon snapshots into one cluster view and returns
// the names of daemons whose scrape failed (sorted). Semantics:
//
//   - counters sum across daemons
//   - gauges sum, except names ending in "_version" take the max (a
//     placement version summed over three daemons is nonsense; the
//     newest view is the honest answer)
//   - histograms with identical bucket bounds merge bucket-wise, and
//     the cluster quantiles are recomputed from the merged buckets;
//     mismatched bounds (mixed daemon builds) fall back to count+sum
//     only, with quantiles zeroed rather than fabricated
//   - shard rows concatenate, sorted by key
//   - traces merge by ID (see MergeTraces)
func Merge(scrapes []Scrape) (remote.StatsDTO, []string) {
	var out remote.StatsDTO
	var unavailable []string
	counters := make(map[string]uint64)
	gauges := make(map[string]float64)
	type histAcc struct {
		dto      remote.HistogramDTO
		daemons  int
		mismatch bool
	}
	hists := make(map[string]*histAcc)
	var histOrder []string

	for _, sc := range scrapes {
		if sc.Err != nil {
			unavailable = append(unavailable, sc.Daemon.Name)
			continue
		}
		st := sc.Stats
		out.Enabled = out.Enabled || st.Enabled
		for name, v := range st.Counters {
			counters[name] += v
		}
		for name, v := range st.Gauges {
			if strings.HasSuffix(name, "_version") {
				if cur, ok := gauges[name]; !ok || v > cur {
					gauges[name] = v
				}
			} else {
				gauges[name] += v
			}
		}
		for _, h := range st.Histograms {
			acc, ok := hists[h.Name]
			if !ok {
				cp := h
				cp.Buckets = append([]remote.BucketDTO(nil), h.Buckets...)
				hists[h.Name] = &histAcc{dto: cp, daemons: 1}
				histOrder = append(histOrder, h.Name)
				continue
			}
			acc.daemons++
			acc.dto.Count += h.Count
			acc.dto.Sum += h.Sum
			if !sameBounds(acc.dto.Buckets, h.Buckets) {
				acc.mismatch = true
				continue
			}
			for i := range h.Buckets {
				acc.dto.Buckets[i].Count += h.Buckets[i].Count
			}
		}
		out.Shards = append(out.Shards, st.Shards...)
	}

	if len(counters) > 0 {
		out.Counters = counters
	}
	if len(gauges) > 0 {
		out.Gauges = gauges
	}
	sort.Strings(histOrder)
	for _, name := range histOrder {
		acc := hists[name]
		h := acc.dto
		if acc.mismatch {
			// Mixed bucket layouts: merged quantiles would be fiction.
			h.P50, h.P95, h.P99 = 0, 0, 0
			h.Buckets = nil
		} else if acc.daemons > 1 {
			bounds, counts := bucketsToCounts(h.Buckets)
			h.P50 = obs.QuantileFromBuckets(bounds, counts, 0.50)
			h.P95 = obs.QuantileFromBuckets(bounds, counts, 0.95)
			h.P99 = obs.QuantileFromBuckets(bounds, counts, 0.99)
		}
		out.Histograms = append(out.Histograms, h)
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Key < out.Shards[j].Key })
	out.Traces = MergeTraces(scrapes)
	sort.Strings(unavailable)
	return out, unavailable
}

// sameBounds reports whether two cumulative bucket lists share the
// same bound sequence (counts may differ).
func sameBounds(a, b []remote.BucketDTO) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Le != b[i].Le {
			return false
		}
	}
	return true
}

// bucketsToCounts converts the wire's cumulative buckets (Le < 0 marks
// the +Inf overflow) into the finite bounds + per-bucket counts form
// obs.QuantileFromBuckets consumes.
func bucketsToCounts(bs []remote.BucketDTO) (bounds []float64, counts []uint64) {
	counts = make([]uint64, 0, len(bs))
	var prev uint64
	for _, b := range bs {
		if b.Le >= 0 {
			bounds = append(bounds, b.Le)
		}
		counts = append(counts, b.Count-prev)
		prev = b.Count
	}
	return bounds, counts
}

// MergeTraces joins per-daemon trace records by ID: the spans of one
// trace scraped from several daemons collapse into a single record
// whose clock zero is the earliest begin seen, with every span's
// offset re-anchored to it. Spans missing a daemon label inherit the
// scraped daemon's name — a single-daemon deployment never labels its
// spans, but in the cluster view attribution is the whole point.
// Traces sort newest-first; each trace's spans sort by offset.
func MergeTraces(scrapes []Scrape) []remote.TraceDTO {
	type rec struct {
		dto   remote.TraceDTO
		begin time.Time
	}
	byID := make(map[string]*rec)
	var order []string
	for _, sc := range scrapes {
		if sc.Err != nil {
			continue
		}
		for _, t := range sc.Stats.Traces {
			begin, err := time.Parse(time.RFC3339Nano, t.Begin)
			if err != nil {
				continue
			}
			spans := make([]remote.SpanDTO, len(t.Spans))
			copy(spans, t.Spans)
			for i := range spans {
				if spans[i].Daemon == "" {
					spans[i].Daemon = sc.Daemon.Name
				}
			}
			r, ok := byID[t.ID]
			if !ok {
				byID[t.ID] = &rec{
					dto:   remote.TraceDTO{ID: t.ID, Begin: t.Begin, Spans: spans},
					begin: begin,
				}
				order = append(order, t.ID)
				continue
			}
			// Re-anchor both sides to the earlier begin before appending.
			if begin.Before(r.begin) {
				shift := float64(r.begin.Sub(begin).Microseconds())
				for i := range r.dto.Spans {
					r.dto.Spans[i].OffsetUs += shift
				}
				r.begin = begin
				r.dto.Begin = t.Begin
			} else if shift := float64(begin.Sub(r.begin).Microseconds()); shift > 0 {
				for i := range spans {
					spans[i].OffsetUs += shift
				}
			}
			r.dto.Spans = append(r.dto.Spans, spans...)
		}
	}
	out := make([]remote.TraceDTO, 0, len(byID))
	for _, id := range order {
		r := byID[id]
		sort.SliceStable(r.dto.Spans, func(i, j int) bool {
			return r.dto.Spans[i].OffsetUs < r.dto.Spans[j].OffsetUs
		})
		var total float64
		for _, sp := range r.dto.Spans {
			if e := sp.OffsetUs + sp.DurUs; e > total {
				total = e
			}
		}
		r.dto.TotalUs = total
		out = append(out, r.dto)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Begin > out[j].Begin })
	return out
}

// WriteStatsText renders a merged snapshot in the /metrics exposition
// format, plus cluster_* meta lines reporting scrape coverage.
func WriteStatsText(w io.Writer, st remote.StatsDTO, scraped int, unavailable []string) {
	fmt.Fprintf(w, "cluster_daemons_scraped %d\n", scraped)
	fmt.Fprintf(w, "cluster_daemons_unavailable %d\n", len(unavailable))
	for _, name := range unavailable {
		fmt.Fprintf(w, "# unavailable daemon: %s\n", name)
	}
	names := make([]string, 0, len(st.Counters))
	for name := range st.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, st.Counters[name])
	}
	names = names[:0]
	for name := range st.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(st.Gauges[name]))
	}
	for _, h := range st.Histograms {
		fmt.Fprintf(w, "%s_count %d\n", h.Name, h.Count)
		fmt.Fprintf(w, "%s_sum %s\n", h.Name, formatFloat(h.Sum))
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", h.Name, formatFloat(h.P50))
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %s\n", h.Name, formatFloat(h.P95))
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", h.Name, formatFloat(h.P99))
		for _, b := range h.Buckets {
			le := "+Inf"
			if b.Le >= 0 && !math.IsInf(b.Le, 1) {
				le = formatFloat(b.Le)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, le, b.Count)
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Fetch is the one-call path mwctl uses: discover, scrape, merge. It
// returns the merged snapshot, the daemons scraped, and the names of
// unreachable ones. An empty deployment is an error — aggregating
// nothing would render as a healthy all-zero cluster.
func Fetch(regAddr string, traces int, timeout time.Duration) (remote.StatsDTO, []Daemon, []string, error) {
	daemons, err := Discover(regAddr)
	if err != nil {
		return remote.StatsDTO{}, nil, nil, err
	}
	if len(daemons) == 0 {
		return remote.StatsDTO{}, nil, nil, fmt.Errorf("cluster: no daemons registered at %s", regAddr)
	}
	merged, unavailable := Merge(ScrapeAll(daemons, traces, timeout))
	return merged, daemons, unavailable, nil
}

// MetricsHandler serves the merged cluster snapshot as exposition text
// (the registry mounts it at /metrics/cluster). Every request scrapes
// live — the registry stays stateless about daemon internals.
func MetricsHandler(regAddr string, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		daemons, err := Discover(regAddr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		merged, unavailable := Merge(ScrapeAll(daemons, 0, timeout))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteStatsText(w, merged, len(daemons)-len(unavailable), unavailable)
	})
}
