// Command mwctl is the MiddleWhere client CLI: it talks to a running
// location service daemon and exercises the application API.
//
// Usage:
//
//	mwctl -addr localhost:7700 locate alice
//	mwctl -addr localhost:7700 prob alice CS/Floor3/NetLab
//	mwctl -addr localhost:7700 who CS/Floor3/NetLab
//	mwctl -addr localhost:7700 watch CS/Floor3/NetLab 30s
//	mwctl -addr localhost:7700 route CS/Floor3/NetLab CS/Floor3/HCILab
//	mwctl -addr localhost:7700 relate CS/Floor3/NetLab CS/Floor3/MainCorridor
//	mwctl -addr localhost:7700 sensor ubi-1 0.95   # register a sensor first
//	mwctl -addr localhost:7700 ingest ubi-1 alice 'CS/Floor3/(370,15)'
//	mwctl -addr localhost:7700 query "SELECT objects WHERE type = 'Room'"
//	mwctl -addr localhost:7700 health        # exits 1 unless Healthy
//	mwctl -addr localhost:7700 health -v     # adds peer state and client metrics
//	mwctl -addr localhost:7700 shards        # shard placement map and peer state
//	mwctl -addr localhost:7700 who-fed CS    # federated scan (partial-tolerant)
//	mwctl -addr localhost:7700 stats         # server obs counters/histograms
//	mwctl -addr localhost:7700 trace 5       # recent pipeline traces
//	mwctl -registry localhost:7600 stats -cluster   # merged across all daemons
//	mwctl -registry localhost:7600 trace -cluster 5 # cross-daemon span trees
//	mwctl -addr localhost:7700 -retries 8 -timeout 3s locate alice
//	mwctl -registry localhost:7600 locate alice
//
// health -v also reports any latency SLOs the daemon tracks (-slo);
// a breached objective makes mwctl exit non-zero.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"middlewhere"
)

func main() {
	var (
		addr    = flag.String("addr", "", "location service address")
		regAddr = flag.String("registry", "", "registry address (looks up -name instead of -addr)")
		name    = flag.String("name", "location-service", "service name for registry lookup")
		retries = flag.Int("retries", 0, "dial/reconnect attempts per round (0 = default)")
		timeout = flag.Duration("timeout", 0, "per-call RPC timeout (0 = default)")
	)
	flag.Parse()
	opts := middlewhere.RemoteDialOptions{
		DialAttempts: *retries,
		CallTimeout:  *timeout,
	}
	if err := run(*addr, *regAddr, *name, opts, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

func run(addr, regAddr, name string, opts middlewhere.RemoteDialOptions, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mwctl [flags] <locate|prob|who|who-fed|watch|route|relate|query|dist|history|sensor|ingest|health|shards|stats|trace> ...")
	}
	// Cluster-wide stats/trace aggregate every daemon of a deployment
	// through the registry — they never dial one daemon, so they branch
	// off before address resolution.
	if cmd := args[0]; (cmd == "stats" || cmd == "trace") &&
		len(args) > 1 && args[1] == "-cluster" {
		if regAddr == "" {
			return fmt.Errorf("%s -cluster requires -registry", cmd)
		}
		return runCluster(cmd, regAddr, args[2:])
	}
	if addr == "" && regAddr != "" {
		reg, err := middlewhere.DialRegistry(regAddr)
		if err != nil {
			return err
		}
		defer reg.Close()
		e, err := reg.Lookup(name)
		if err != nil {
			return err
		}
		addr = e.Addr
	}
	if addr == "" {
		return fmt.Errorf("need -addr or -registry")
	}
	c, err := middlewhere.DialLocationOptions(addr, opts)
	if err != nil {
		return err
	}
	defer c.Close()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "locate":
		if len(rest) != 1 {
			return fmt.Errorf("usage: locate <object>")
		}
		loc, err := c.Locate(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s p=%.3f (%s)\n", loc.Object, loc.Symbolic, loc.Prob, loc.Band)
		fmt.Printf("  rect [%.1f,%.1f %.1f,%.1f] support=%v discarded=%v\n",
			loc.Rect.MinX, loc.Rect.MinY, loc.Rect.MaxX, loc.Rect.MaxY,
			loc.Support, loc.Discarded)
		return nil
	case "prob":
		if len(rest) != 2 {
			return fmt.Errorf("usage: prob <object> <region>")
		}
		p, band, err := c.ProbInRegion(rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("P(%s in %s) = %.3f (%s)\n", rest[0], rest[1], p, band)
		return nil
	case "who":
		if len(rest) != 1 {
			return fmt.Errorf("usage: who <region>")
		}
		objs, err := c.ObjectsInRegion(rest[0], 0.4)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(objs))
		for who := range objs {
			names = append(names, who)
		}
		sort.Strings(names)
		for _, who := range names {
			fmt.Printf("%s p=%.3f\n", who, objs[who])
		}
		if len(names) == 0 {
			fmt.Println("(nobody)")
		}
		return nil
	case "who-fed":
		if len(rest) < 1 || len(rest) > 2 || (len(rest) == 2 && rest[1] != "-strict") {
			return fmt.Errorf("usage: who-fed <region> [-strict]")
		}
		strict := len(rest) == 2
		rep, err := c.FedObjectsInRegion(rest[0], 0.4, strict)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(rep.Objects))
		for who := range rep.Objects {
			names = append(names, who)
		}
		sort.Strings(names)
		for _, who := range names {
			fmt.Printf("%s p=%.3f\n", who, rep.Objects[who])
		}
		if len(names) == 0 {
			fmt.Println("(nobody)")
		}
		if rep.Partial {
			fmt.Printf("PARTIAL: shards unavailable: %s\n", strings.Join(rep.Unavailable, ", "))
		}
		return nil
	case "shards":
		if len(rest) != 0 {
			return fmt.Errorf("usage: shards")
		}
		rep, err := c.Shards()
		if err != nil {
			return err
		}
		if rep.Daemon == "" {
			fmt.Println("(standalone daemon; no federation)")
		} else {
			fmt.Printf("daemon %s  placement v%d\n", rep.Daemon, rep.PlacementVersion)
		}
		for _, p := range rep.Placement {
			fmt.Printf("  %-24s -> %s (%s) v%d\n", p.Shard, p.Daemon, p.Addr, p.Version)
		}
		if len(rep.Local) > 0 {
			fmt.Printf("local shards: %s\n", strings.Join(rep.Local, ", "))
		}
		for _, p := range rep.Peers {
			line := fmt.Sprintf("peer %-12s %-8s addr=%s", p.Name, p.Breaker, p.Addr)
			if p.ConsecFails > 0 {
				line += fmt.Sprintf(" fails=%d", p.ConsecFails)
			}
			if len(p.Shards) > 0 {
				line += " shards=" + strings.Join(p.Shards, ",")
			}
			if p.LastErr != "" {
				line += " lastErr=" + p.LastErr
			}
			fmt.Println(line)
		}
		return nil
	case "watch":
		if len(rest) < 1 {
			return fmt.Errorf("usage: watch <region> [duration]")
		}
		dur := 30 * time.Second
		if len(rest) > 1 {
			d, err := time.ParseDuration(rest[1])
			if err != nil {
				return err
			}
			dur = d
		}
		_, err := c.Subscribe(middlewhere.SubscribeArgs{Region: rest[0], MinProb: 0.4},
			func(n middlewhere.NotificationDTO) {
				fmt.Printf("%s  %s entered %s (p=%.3f, %s)\n",
					n.Time, n.Object, rest[0], n.Prob, n.Band)
			})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "watching %s for %s...\n", rest[0], dur)
		time.Sleep(dur)
		return nil
	case "route":
		if len(rest) < 2 {
			return fmt.Errorf("usage: route <from> <to> [free|restricted]")
		}
		policy := "restricted"
		if len(rest) > 2 {
			policy = rest[2]
		}
		rt, err := c.Route(rest[0], rest[1], policy)
		if err != nil {
			return err
		}
		fmt.Printf("%.1f units: %v\n", rt.Length, rt.Regions)
		return nil
	case "relate":
		if len(rest) != 2 {
			return fmt.Errorf("usage: relate <regionA> <regionB>")
		}
		rel, pass, err := c.Relate(rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s / %s\n", rel, pass)
		return nil
	case "dist":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dist <object>")
		}
		cells, err := c.Distribution(rest[0])
		if err != nil {
			return err
		}
		for _, cell := range cells {
			fmt.Printf("p=%.3f  %-24s [%.1f,%.1f %.1f,%.1f]\n",
				cell.Prob, cell.Symbolic,
				cell.Rect.MinX, cell.Rect.MinY, cell.Rect.MaxX, cell.Rect.MaxY)
		}
		return nil
	case "history":
		if len(rest) != 1 {
			return fmt.Errorf("usage: history <object>")
		}
		trail, err := c.History(rest[0])
		if err != nil {
			return err
		}
		for _, loc := range trail {
			fmt.Printf("%s  %-24s p=%.3f\n", loc.Time, loc.Symbolic, loc.Prob)
		}
		if len(trail) == 0 {
			fmt.Println("(no history; is the service running with history enabled?)")
		}
		return nil
	case "query":
		if len(rest) != 1 {
			return fmt.Errorf("usage: query '<mwql statement>'")
		}
		objs, err := c.Query(rest[0])
		if err != nil {
			return err
		}
		for _, o := range objs {
			fmt.Printf("%-30s %-10s [%.1f,%.1f %.1f,%.1f]", o.GLOB, o.Type,
				o.Bounds.MinX, o.Bounds.MinY, o.Bounds.MaxX, o.Bounds.MaxY)
			for k, v := range o.Properties {
				fmt.Printf(" %s=%s", k, v)
			}
			fmt.Println()
		}
		if len(objs) == 0 {
			fmt.Println("(no objects)")
		}
		return nil
	case "sensor":
		if len(rest) < 1 || len(rest) > 2 {
			return fmt.Errorf("usage: sensor <sensorID> [confidence]")
		}
		conf := 0.95
		if len(rest) == 2 {
			v, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				return fmt.Errorf("usage: sensor <sensorID> [confidence]: %w", err)
			}
			conf = v
		}
		if err := c.RegisterSensor(rest[0], middlewhere.UbisenseSpec(conf)); err != nil {
			return err
		}
		fmt.Printf("registered %s (ubisense-class, confidence %.2f)\n", rest[0], conf)
		return nil
	case "ingest":
		if len(rest) < 3 {
			return fmt.Errorf("usage: ingest <sensorID> <object> <glob> [radius]")
		}
		loc, err := middlewhere.ParseGLOB(rest[2])
		if err != nil {
			return err
		}
		radius := 0.0
		if len(rest) > 3 {
			if radius, err = strconv.ParseFloat(rest[3], 64); err != nil {
				return err
			}
		}
		return c.Ingest(middlewhere.Reading{
			SensorID:        rest[0],
			MObjectID:       rest[1],
			Location:        loc,
			DetectionRadius: radius,
			Time:            time.Now(),
		})
	case "health":
		verbose := false
		switch {
		case len(rest) == 1 && rest[0] == "-v":
			verbose = true
		case len(rest) != 0:
			return fmt.Errorf("usage: health [-v]")
		}
		return runHealth(c, verbose)
	case "stats":
		if len(rest) != 0 {
			return fmt.Errorf("usage: stats [-cluster]")
		}
		st, err := c.Stats(0)
		if err != nil {
			return err
		}
		printStats(st)
		return nil
	case "trace":
		n := 5
		if len(rest) > 1 {
			return fmt.Errorf("usage: trace [-cluster] [n]")
		}
		if len(rest) == 1 {
			v, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("usage: trace [n]: %w", err)
			}
			n = v
		}
		st, err := c.Stats(n)
		if err != nil {
			return err
		}
		if !st.Enabled && len(st.Traces) == 0 {
			fmt.Println("(tracing disabled on the server; start the daemon with -trace)")
			return nil
		}
		printTraces(st.Traces)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runCluster handles `stats -cluster` and `trace -cluster [n]`:
// discover the deployment's daemons through the registry, scrape each
// one's mw.stats, and print the merged view (counters summed,
// histograms merged bucket-wise, traces stitched across daemons).
func runCluster(cmd, regAddr string, rest []string) error {
	traces := 0
	if cmd == "trace" {
		traces = 5
		switch {
		case len(rest) == 1:
			v, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("usage: trace -cluster [n]: %w", err)
			}
			traces = v
		case len(rest) > 1:
			return fmt.Errorf("usage: trace -cluster [n]")
		}
	} else if len(rest) != 0 {
		return fmt.Errorf("usage: stats -cluster")
	}
	st, daemons, unavailable, err := middlewhere.ClusterFetch(regAddr, traces, 10*time.Second)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(daemons))
	for _, d := range daemons {
		names = append(names, d.Name)
	}
	fmt.Printf("cluster: %d/%d daemon(s) scraped: %s\n",
		len(daemons)-len(unavailable), len(daemons), strings.Join(names, ", "))
	if len(unavailable) > 0 {
		fmt.Printf("WARNING: unavailable: %s\n", strings.Join(unavailable, ", "))
	}
	if cmd == "trace" {
		printTraces(st.Traces)
	} else {
		printStats(st)
	}
	return nil
}

// runHealth prints server and client health and returns an error —
// making mwctl exit non-zero — unless both sides are Healthy, so the
// command is scriptable as a probe.
func runHealth(c *middlewhere.RemoteClient, verbose bool) error {
	h, err := c.ServerHealth()
	if err != nil {
		return err
	}
	fmt.Printf("server: %s up=%s ingested=%d notifications=%d subs=%d sensors=%d queue=%d/%d\n",
		h.Status, (time.Duration(h.UptimeSeconds * float64(time.Second))).Round(time.Second),
		h.Ingested, h.Notifications, h.Subscriptions, h.Sensors, h.QueueDepth, h.QueueCap)
	ch := c.Health()
	fmt.Printf("client: %s conn=%s reconnects=%d malformed=%d deduped=%d sensors=%d subs=%d\n",
		ch.State, ch.Conn, ch.Reconnects, ch.MalformedNotifications, ch.DedupedNotifications,
		ch.Sensors, ch.Subscriptions)
	if verbose && h.Federation != nil {
		fmt.Printf("federation: daemon=%s placement=v%d\n", h.Federation.Daemon, h.Federation.PlacementVersion)
		for _, p := range h.Federation.Peers {
			line := fmt.Sprintf("  peer %-12s %-8s addr=%s", p.Name, p.Breaker, p.Addr)
			if p.Calls > 0 || p.Failures > 0 {
				line += fmt.Sprintf(" calls=%d failures=%d retries=%d opens=%d",
					p.Calls, p.Failures, p.Retries, p.BreakerOpens)
			}
			if p.ConsecFails > 0 {
				line += fmt.Sprintf(" fails=%d", p.ConsecFails)
			}
			if len(p.Shards) > 0 {
				line += " shards=" + strings.Join(p.Shards, ",")
			}
			if p.LastErr != "" {
				line += " lastErr=" + p.LastErr
			}
			fmt.Println(line)
		}
	}
	if verbose && len(h.SLOs) > 0 {
		fmt.Println("slos:")
		for _, s := range h.SLOs {
			status := "ok"
			if s.Breached {
				status = "BREACHED"
			}
			fmt.Printf("  %-10s %s p%g < %.0fus window=%s attained=%.1fus burn=%.2f samples=%d %s\n",
				s.Name, s.Metric, s.Percentile*100, s.TargetUs,
				(time.Duration(s.WindowSecs * float64(time.Second))).Round(time.Second),
				s.AttainedUs, s.BurnRate, s.Samples, status)
		}
	}
	if verbose {
		snap := c.Metrics().Snapshot()
		for _, cs := range snap.Counters {
			fmt.Printf("  %-36s %d\n", cs.Name, cs.Value)
		}
		for _, g := range snap.Gauges {
			fmt.Printf("  %-36s %g\n", g.Name, g.Value)
		}
		for _, hs := range snap.Histograms {
			fmt.Printf("  %-36s count=%d p50=%.1fus p95=%.1fus\n", hs.Name, hs.Count, hs.P50, hs.P95)
		}
	}
	if h.Status != "healthy" {
		return fmt.Errorf("health: server is %s", h.Status)
	}
	if ch.State != middlewhere.Healthy {
		return fmt.Errorf("health: client is %s", ch.State)
	}
	for _, s := range h.SLOs {
		if s.Breached {
			return fmt.Errorf("health: slo %s breached (p%g attained %.1fus, target %.0fus)",
				s.Name, s.Percentile*100, s.AttainedUs, s.TargetUs)
		}
	}
	return nil
}

// printTraces renders span trees one line per span, tagging each span
// with the daemon that recorded it — cluster-merged traces interleave
// hops from several daemons under one trace ID.
func printTraces(traces []middlewhere.TraceDTO) {
	for _, tr := range traces {
		fmt.Printf("%s  begin=%s  total=%.1fus\n", tr.ID, tr.Begin, tr.TotalUs)
		for _, sp := range tr.Spans {
			daemon := sp.Daemon
			if daemon == "" {
				daemon = "-"
			}
			fmt.Printf("  %-18s @%-14s +%8.1fus  %8.1fus\n",
				sp.Stage, daemon, sp.OffsetUs, sp.DurUs)
		}
	}
	if len(traces) == 0 {
		fmt.Println("(no traces recorded yet)")
	}
}

// printStats renders an mw.stats snapshot.
func printStats(st middlewhere.StatsDTO) {
	fmt.Printf("tracing enabled: %v\n", st.Enabled)
	names := make([]string, 0, len(st.Counters))
	for n := range st.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %d\n", n, st.Counters[n])
	}
	names = names[:0]
	for n := range st.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %g\n", n, st.Gauges[n])
	}
	if len(st.Histograms) > 0 {
		fmt.Printf("%-28s %8s %10s %10s %10s %10s\n",
			"histogram", "count", "mean(us)", "p50(us)", "p95(us)", "p99(us)")
		for _, h := range st.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Printf("%-28s %8d %10.1f %10.1f %10.1f %10.1f\n",
				h.Name, h.Count, mean, h.P50, h.P95, h.P99)
		}
	}
	if len(st.Shards) > 0 {
		fmt.Printf("%-6s %8s %9s %8s %9s\n",
			"stripe", "mobile", "readings", "epoch", "inserts")
		for _, sh := range st.Shards {
			fmt.Printf("%-6s %8d %9d %8d %9d\n",
				sh.Key, sh.MobileObjects, sh.Readings, sh.Epoch, sh.Inserts)
		}
		// Snapshot lifecycle at a glance: cuts taken, cuts callers hold
		// open (each blocks every writer and every other cut; a steadily
		// nonzero live is a Close leak), and how long a cut waited for
		// its turn and its stripe locks.
		var cutWaitP99 float64
		for _, h := range st.Histograms {
			if h.Name == "spatialdb_cut_wait_us" {
				cutWaitP99 = h.P99
				break
			}
		}
		fmt.Printf("snapshots: cuts=%d live=%g cut_wait_p99=%.1fµs\n",
			st.Counters["spatialdb_snapshots_total"],
			st.Gauges["spatialdb_snapshot_pool_live"],
			cutWaitP99)
	}
}
