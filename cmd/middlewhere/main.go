// Command middlewhere runs the MiddleWhere Location Service daemon:
// it loads a building model, starts the Location Service, publishes it
// over TCP (the paper's CORBA service, §7), and optionally registers
// with a service registry (the Gaia Space Repository analogue) so
// applications can discover it by name.
//
// Usage:
//
//	middlewhere -addr :7700
//	middlewhere -addr :7700 -registry localhost:7600 -name location-service
//	middlewhere -addr :7700 -registry localhost:7600 -name cs-2 -floors CS/Floor2
//	middlewhere -building synthetic -rows 5 -cols 8
//	middlewhere -floorplan plan.json
//	middlewhere -addr :7700 -trace -debug-addr 127.0.0.1:7771
//
// With -debug-addr the daemon serves /metrics (Prometheus text),
// /debug/traces (JSON), and /debug/pprof/* on that address; -trace
// turns on per-reading pipeline span tracing (metrics always record).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"middlewhere"
)

func main() {
	var (
		addr         = flag.String("addr", ":7700", "TCP address to serve the location service on")
		regAddr      = flag.String("registry", "", "optional registry address to register with")
		name         = flag.String("name", "location-service", "service name in the registry")
		buildingKind = flag.String("building", "paper", `building model: "paper", "synthetic", or "multistorey[:N]" (N grid floors CS/F0..)`)
		rows         = flag.Int("rows", 4, "synthetic building: room rows")
		cols         = flag.Int("cols", 6, "synthetic building: room columns")
		floorplan    = flag.String("floorplan", "", "JSON floor-plan file (overrides -building)")
		floors       = flag.String("floors", "", "comma-separated floor shard keys this daemon owns (federated mode; requires -registry)")
		debugAddr    = flag.String("debug-addr", "", "optional address for /metrics, /debug/traces, and pprof")
		trace        = flag.Bool("trace", false, "record per-reading pipeline span traces")
		slo          = flag.String("slo", "", `latency objectives, e.g. "ingest=p99<2ms,query=p99<10ms@30s" (mwctl health -v reports them)`)
	)
	flag.Parse()
	middlewhere.EnableObservability(*trace)
	middlewhere.SetObsDaemonLabel(*name)
	if *debugAddr != "" {
		dbg, err := middlewhere.StartObsDebugServer(*debugAddr,
			middlewhere.ObsDefault(), middlewhere.ObsDefaultTracer())
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug server (metrics, traces, pprof) on http://%s", dbg.Addr())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(*addr, *regAddr, *name, *buildingKind, *floorplan, *floors, *slo, *rows, *cols, stop); err != nil {
		log.Fatal(err)
	}
}

// loadBuilding resolves the -building/-floorplan flags to a model.
func loadBuilding(buildingKind, floorplan string, rows, cols int) (*middlewhere.Building, string, error) {
	switch {
	case floorplan != "":
		f, err := os.Open(floorplan)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		bld, err := middlewhere.LoadPlan(f)
		if err != nil {
			return nil, "", err
		}
		return bld, "plan:" + floorplan, nil
	case buildingKind == "paper":
		return middlewhere.PaperFloor(), buildingKind, nil
	case buildingKind == "synthetic":
		return middlewhere.SyntheticBuilding("SYN", rows, cols, 20, 15, 8), buildingKind, nil
	case strings.HasPrefix(buildingKind, "multistorey"):
		// "multistorey" or "multistorey:N" — N identical grid floors
		// CS/F0..CS/F<N-1>, the model federated deployments shard.
		storeys := 3
		if _, n, ok := strings.Cut(buildingKind, ":"); ok {
			v, err := strconv.Atoi(n)
			if err != nil || v < 1 {
				return nil, "", fmt.Errorf("bad storey count %q", n)
			}
			storeys = v
		}
		return middlewhere.MultiStoreyBuilding("CS", storeys, rows, cols, 20, 15, 8), buildingKind, nil
	default:
		return nil, "", fmt.Errorf("unknown building kind %q", buildingKind)
	}
}

func run(addr, regAddr, name, buildingKind, floorplan, floors, slo string, rows, cols int, stop <-chan os.Signal) error {
	bld, kindLabel, err := loadBuilding(buildingKind, floorplan, rows, cols)
	if err != nil {
		return err
	}
	buildingKind = kindLabel

	svc, err := middlewhere.New(bld)
	if err != nil {
		return err
	}
	defer svc.Close()

	srv := middlewhere.NewRemoteServer(svc)
	if slo != "" {
		objectives, err := middlewhere.ParseSLOs(slo, nil)
		if err != nil {
			return err
		}
		tracker := middlewhere.NewSLOTracker(nil, objectives, 0)
		tracker.Start()
		defer tracker.Stop()
		srv.SetSLOTracker(tracker)
		log.Printf("tracking %d latency objective(s)", len(objectives))
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("location service (%s building, %d objects) on %s",
		buildingKind, len(bld.Objects), bound)

	if floors != "" {
		if regAddr == "" {
			return fmt.Errorf("-floors requires -registry (the placement map lives there)")
		}
		var owned []string
		for _, fl := range strings.Split(floors, ",") {
			if fl = strings.TrimSpace(fl); fl != "" {
				owned = append(owned, fl)
			}
		}
		router, err := middlewhere.NewFedRouter(svc, middlewhere.FedConfig{
			Daemon:       name,
			Addr:         bound,
			RegistryAddr: regAddr,
			Floors:       owned,
		})
		if err != nil {
			return fmt.Errorf("federation: %w", err)
		}
		defer router.Close()
		srv.SetFederation(router)
		log.Printf("federated daemon %q owns floors %s", name, strings.Join(owned, ", "))
	}

	if regAddr != "" {
		reg, err := middlewhere.DialRegistry(regAddr)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		defer reg.Close()
		heartbeat := func() error { return reg.Register(name, bound, 30*time.Second) }
		if err := heartbeat(); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		log.Printf("registered as %q at %s", name, regAddr)
		ticker := time.NewTicker(10 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := heartbeat(); err != nil {
					log.Printf("registry heartbeat: %v", err)
				}
			case <-stop:
				_ = reg.Deregister(name)
				log.Print("shutting down")
				return nil
			}
		}
	}

	<-stop
	log.Print("shutting down")
	return nil
}
