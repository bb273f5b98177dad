// Package middlewhere is a Go implementation of MiddleWhere, the
// distributed middleware for location awareness in ubiquitous
// computing applications (Ranganathan, Al-Muhtadi, Chetan, Campbell,
// Mickunas — Middleware 2004).
//
// MiddleWhere separates location-sensitive applications from location
// sensing technologies: adapters convert heterogeneous sensor readings
// (UWB tags, RFID badges, biometric logins, GPS, card swipes) into a
// common representation, a spatial database stores them together with
// a geometric model of the physical space, and a probabilistic
// reasoning engine fuses them into a consolidated, probability-
// annotated view of where every person and device is.
//
// # Quick start
//
//	bld := middlewhere.PaperFloor()
//	svc, err := middlewhere.New(bld)
//	if err != nil { ... }
//	defer svc.Close()
//
//	// Plug in a sensor and feed a reading.
//	ubi, _ := middlewhere.NewUbisense("ubi-1", middlewhere.MustParseGLOB("CS/Floor3"),
//	    0.9, svc, svc, middlewhere.AdapterOptions{})
//	_ = ubi.ReportFix("alice", middlewhere.Pt(370, 15), time.Now())
//
//	// Pull: where is alice?
//	loc, _ := svc.LocateObject("alice")
//	fmt.Println(loc.Symbolic, loc.Prob, loc.Band)
//
//	// Push: tell me when anyone enters the NetLab.
//	svc.Subscribe(middlewhere.Subscription{
//	    Region:  middlewhere.MustParseGLOB("CS/Floor3/NetLab"),
//	    MinProb: 0.5,
//	    Handler: func(n middlewhere.Notification) { fmt.Println(n.Object, "entered") },
//	})
//
// The package is a facade: each subsystem lives in its own internal
// package (see DESIGN.md for the inventory), and the types here are
// aliases so applications need a single import.
package middlewhere

import (
	"middlewhere/internal/adapter"
	"middlewhere/internal/building"
	"middlewhere/internal/calibrate"
	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwql"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/obs/cluster"
	"middlewhere/internal/rcc"
	"middlewhere/internal/registry"
	"middlewhere/internal/remote"
	"middlewhere/internal/rules"
	"middlewhere/internal/sim"
	"middlewhere/internal/spatialdb"
	"middlewhere/internal/topo"
)

// ---------------------------------------------------------------------------
// Location Service (the paper's §4)

type (
	// Service is the Location Service: the single source of location
	// information for applications. Create with New; Close when done.
	Service = core.Service
	// Location is the consolidated answer to "where is X?".
	Location = core.Location
	// Notification is delivered when a subscribed condition becomes
	// true.
	Notification = core.Notification
	// Subscription configures a region-based notification.
	Subscription = core.Subscription
	// PrivacyPolicy limits how precisely an object's location is
	// revealed.
	PrivacyPolicy = core.PrivacyPolicy
	// AccessPolicy is a per-requester disclosure policy (§4.5).
	AccessPolicy = core.AccessPolicy
	// RegionProb is one cell of a spatial probability distribution.
	RegionProb = core.RegionProb
	// ServiceOption configures New.
	ServiceOption = core.Option
)

// New builds a Location Service over a building model.
func New(b *Building, opts ...ServiceOption) (*Service, error) {
	return core.New(b, opts...)
}

// WithClock injects a time source (tests and simulations).
var WithClock = core.WithClock

// WithHistory records a bounded trail of fused estimates per object,
// queryable with Service.History.
var WithHistory = core.WithHistory

// WithParallelism sizes the worker pool the region scans
// (ObjectsInRegion, OccupancyHeatmap) fan out on (0 = GOMAXPROCS, 1 =
// serial scans). Stored readings are evaluated serially, in reading
// order, whatever the size.
var WithParallelism = core.WithParallelism

// WithCacheQuantum sets how long a fused-location cache entry may
// serve queries at a later wall-clock instant (0 = exact-instant
// hits only).
var WithCacheQuantum = core.WithCacheQuantum

// Service errors.
var (
	ErrUnknownObject = core.ErrUnknownObject
	ErrBadSub        = core.ErrBadSub
)

// Health reporting (the fault-tolerance heartbeat).
type (
	// Health is the Location Service's heartbeat snapshot.
	Health = core.Health
	// HealthState classifies a component: Healthy, Degraded, or Down.
	HealthState = core.HealthState
)

// Health states.
const (
	Healthy  = core.Healthy
	Degraded = core.Degraded
	Down     = core.Down
)

// ---------------------------------------------------------------------------
// Buildings and physical space (§5)

type (
	// Building bundles coordinate frames, the universe rectangle, the
	// object table rows, and doors.
	Building = building.Building
	// DoorSpec connects two regions with a door.
	DoorSpec = building.DoorSpec
	// SpatialObject is a row of the physical-space table (Table 1).
	SpatialObject = spatialdb.Object
	// ObjectFilter narrows spatial-database object queries.
	ObjectFilter = spatialdb.ObjectFilter
	// SpatialDB is the spatial database (PostGIS substitute).
	SpatialDB = spatialdb.DB
)

// PaperFloor returns the floor of the paper's Figure 8 / Table 1.
func PaperFloor() *Building { return building.PaperFloor() }

// SyntheticBuilding generates a rows x cols grid floor for experiments.
func SyntheticBuilding(name string, rows, cols int, roomW, roomH, corridorH float64) *Building {
	return building.Synthetic(name, rows, cols, roomW, roomH, corridorH)
}

// MultiStoreyBuilding generates a building with several identical
// floors connected by stairwells, each floor in its own coordinate
// frame (§3's hierarchical coordinate systems).
func MultiStoreyBuilding(name string, floors, rows, cols int, roomW, roomH, corridorH float64) *Building {
	return building.MultiStorey(name, floors, rows, cols, roomW, roomH, corridorH)
}

// LoadPlan reads a JSON floor plan; SavePlan is the method on
// *Building.
var LoadPlan = building.LoadPlan

// ---------------------------------------------------------------------------
// Location model (§3)

type (
	// GLOB is the hierarchical Gaia LOcation Byte-string.
	GLOB = glob.GLOB
	// Granularity names a reveal depth (building/floor/room).
	Granularity = glob.Granularity
	// Point is a planar position.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (MBR).
	Rect = geom.Rect
	// Polygon is a simple polygon.
	Polygon = geom.Polygon
)

// Granularity levels for privacy policies and co-location queries.
const (
	GranBuilding = glob.GranBuilding
	GranFloor    = glob.GranFloor
	GranRoom     = glob.GranRoom
)

// ParseGLOB parses the textual GLOB form.
var ParseGLOB = glob.Parse

// MustParseGLOB parses a GLOB and panics on error (literals, tests).
var MustParseGLOB = glob.MustParse

// SymbolicGLOB builds a symbolic GLOB from path segments.
var SymbolicGLOB = glob.Symbolic

// CoordPointGLOB builds a coordinate point GLOB under a prefix.
var CoordPointGLOB = glob.CoordinatePoint

// CoordRectGLOB builds a coordinate polygon GLOB for an MBR.
var CoordRectGLOB = glob.CoordinateRect

// Pt builds a Point.
var Pt = geom.Pt

// R builds a Rect from two corners.
var R = geom.R

// ---------------------------------------------------------------------------
// Quality model and readings (§3.2, §4.1.1)

type (
	// Reading is one sensor observation in the common representation.
	Reading = model.Reading
	// SensorSpec is a sensor technology's calibration record.
	SensorSpec = model.SensorSpec
	// ErrorModel carries the x/y/z probabilities of §4.1.1.
	ErrorModel = model.ErrorModel
	// TDF is a temporal degradation function.
	TDF = model.TDF
	// LinearTDF degrades confidence linearly over a span.
	LinearTDF = model.LinearTDF
	// ExponentialTDF degrades confidence with a half-life.
	ExponentialTDF = model.ExponentialTDF
	// StepTDF degrades confidence in discrete steps.
	StepTDF = model.StepTDF
	// ConstantTDF never degrades confidence.
	ConstantTDF = model.ConstantTDF
)

// Paper-calibrated sensor specs (§6, plus the §1.1 technologies).
var (
	UbisenseSpec       = model.UbisenseSpec
	RFIDSpec           = model.RFIDSpec
	BiometricShortSpec = model.BiometricShortSpec
	BiometricLongSpec  = model.BiometricLongSpec
	GPSSpec            = model.GPSSpec
	CardReaderSpec     = model.CardReaderSpec
	BluetoothSpec      = model.BluetoothSpec
	DesktopLoginSpec   = model.DesktopLoginSpec
)

// ---------------------------------------------------------------------------
// Probability bands (§4.4)

// Band classifies a probability against the deployed sensors.
type Band = fusion.Band

// The four §4.4 probability bands.
const (
	BandLow      = fusion.BandLow
	BandMedium   = fusion.BandMedium
	BandHigh     = fusion.BandHigh
	BandVeryHigh = fusion.BandVeryHigh
)

// ---------------------------------------------------------------------------
// Spatial relations (§4.6)

type (
	// RCCRelation is an RCC-8 base relation between regions.
	RCCRelation = rcc.Relation
	// Passage refines external connection (free/restricted/none).
	Passage = rcc.Passage
	// TraversalPolicy says which passages routes may use.
	TraversalPolicy = topo.TraversalPolicy
	// Route is a traversable path between regions.
	Route = topo.Route
	// RuleEngine is the Datalog engine for reasoning over derived
	// spatial facts.
	RuleEngine = rules.Engine
)

// RCC-8 relations.
const (
	DC    = rcc.DC
	EC    = rcc.EC
	PO    = rcc.PO
	TPP   = rcc.TPP
	NTPP  = rcc.NTPP
	TPPi  = rcc.TPPi
	NTPPi = rcc.NTPPi
	EQ    = rcc.EQ
)

// Passage kinds.
const (
	PassageNone       = rcc.PassageNone
	PassageRestricted = rcc.PassageRestricted
	PassageFree       = rcc.PassageFree
)

// Traversal policies.
const (
	FreeOnly        = topo.FreeOnly
	AllowRestricted = topo.AllowRestricted
)

// ---------------------------------------------------------------------------
// Adapters (§6)

type (
	// AdapterOptions carries the programmable filter/rate knobs.
	AdapterOptions = adapter.Options
	// UbisenseAdapter wraps the UWB tag technology.
	UbisenseAdapter = adapter.Ubisense
	// RFIDAdapter wraps an RF badge base station.
	RFIDAdapter = adapter.RFID
	// BiometricAdapter wraps a fingerprint/login device.
	BiometricAdapter = adapter.Biometric
	// GPSAdapter wraps a GPS receiver.
	GPSAdapter = adapter.GPS
	// CardReaderAdapter wraps a door badge reader.
	CardReaderAdapter = adapter.CardReader
	// GeoReference anchors geodetic coordinates to a building frame.
	GeoReference = adapter.GeoReference
	// BluetoothAdapter wraps a Bluetooth inquiry-scanning station.
	BluetoothAdapter = adapter.Bluetooth
	// DesktopLoginAdapter wraps workstation session events.
	DesktopLoginAdapter = adapter.DesktopLogin
)

// Adapter constructors.
var (
	NewUbisense     = adapter.NewUbisense
	NewRFID         = adapter.NewRFID
	NewBiometric    = adapter.NewBiometric
	NewGPS          = adapter.NewGPS
	NewCardReader   = adapter.NewCardReader
	NewBluetooth    = adapter.NewBluetooth
	NewDesktopLogin = adapter.NewDesktopLogin
)

// Graceful degradation for adapters feeding a remote sink.
type (
	// ResilientSink wraps any BatchSink with a bounded buffer and a
	// circuit breaker so sink outages degrade instead of erroring into
	// device code.
	ResilientSink = adapter.ResilientSink
	// ResilientOptions tunes a ResilientSink.
	ResilientOptions = adapter.ResilientOptions
	// ResilientStats counts forwarded/buffered/dropped readings.
	ResilientStats = adapter.ResilientStats
	// BatchSink ingests a slice of readings in one call (Service,
	// RemoteClient, and ResilientSink all satisfy it).
	BatchSink = adapter.BatchSink
	// Batcher accumulates readings and forwards them in batches.
	Batcher = adapter.Batcher
)

// NewResilientSink wraps a BatchSink with buffering and a circuit
// breaker.
var NewResilientSink = adapter.NewResilientSink

// NewBatcher wraps a batch-capable sink with batched forwarding.
var NewBatcher = adapter.NewBatcher

// ---------------------------------------------------------------------------
// Simulation (hardware substitute)

type (
	// Sim is the building simulator with ground truth.
	Sim = sim.Sim
	// SimConfig tunes the simulation.
	SimConfig = sim.Config
	// PersonState is a ground-truth snapshot of a simulated person.
	PersonState = sim.PersonState
	// Observer is a simulated sensor installation.
	Observer = sim.Observer
	// UbisenseField simulates UWB coverage.
	UbisenseField = sim.UbisenseField
	// RFIDStation simulates an RF badge base station.
	RFIDStation = sim.RFIDStation
	// CardReaderDoor simulates a badge reader on a door.
	CardReaderDoor = sim.CardReaderDoor
	// BiometricDesk simulates a login station.
	BiometricDesk = sim.BiometricDesk
	// GPSSatellites simulates GPS coverage over an outdoor area.
	GPSSatellites = sim.GPSSatellites
)

// Simulation constructors.
var (
	NewSim           = sim.New
	NewUbisenseField = sim.NewUbisenseField
	NewRFIDStation   = sim.NewRFIDStation
	NewBiometricDesk = sim.NewBiometricDesk
	NewGPSSatellites = sim.NewGPSSatellites
	RunSim           = sim.Run
)

// ---------------------------------------------------------------------------
// Distribution (§7: CORBA + Gaia Space Repository substitutes)

type (
	// RemoteServer publishes a Location Service over TCP.
	RemoteServer = remote.Server
	// RemoteClient is the application-side handle to a remote service.
	RemoteClient = remote.LocationClient
	// SubscribeArgs configures a remote subscription.
	SubscribeArgs = remote.SubscribeArgs
	// NotificationDTO is a notification received over the wire.
	NotificationDTO = remote.NotificationDTO
	// RemoteDialOptions tunes reconnection, backoff, and timeouts for
	// DialLocationOptions.
	RemoteDialOptions = remote.DialOptions
	// ConnState is the client link state (connected/reconnecting/closed).
	ConnState = remote.ConnState
	// ClientHealth summarizes the client side of the link.
	ClientHealth = remote.ClientHealth
	// HealthDTO is the service heartbeat received over the wire.
	HealthDTO = remote.HealthDTO
	// IngestStream pipelines reading batches to the daemon with
	// credit-based backpressure (RemoteClient.OpenIngestStream).
	IngestStream = remote.IngestStream
	// IngestStreamStats snapshots a stream's progress and credit window.
	IngestStreamStats = remote.StreamStats
	// RejectedReadingDTO is one per-reading rejection surfaced by
	// batched or streaming ingest.
	RejectedReadingDTO = remote.RejectedReadingDTO
	// RegistryServer is the service-discovery registry.
	RegistryServer = registry.Server
	// RegistryClient talks to a registry.
	RegistryClient = registry.Client
)

// Client link states.
const (
	StateConnected    = remote.StateConnected
	StateReconnecting = remote.StateReconnecting
	StateClosed       = remote.StateClosed
)

// ---------------------------------------------------------------------------
// Federation (floor shards across daemons)

type (
	// FedRouter federates floor shards across daemons: it leases this
	// daemon's floors in the registry's placement map, forwards ingest
	// to floor owners (with crash-safe object migration), and fans
	// region queries out across the map with explicit degradation.
	FedRouter = fed.Router
	// FedConfig parameterizes a federation router.
	FedConfig = fed.Config
	// FedQueryReply is a federated region scan's result: complete, or
	// explicitly partial with the unavailable shard keys listed.
	FedQueryReply = fed.QueryReply
	// FedShardsReply maps where every floor lives plus peer state.
	FedShardsReply = fed.ShardsReply
	// FedPeerState is one peer daemon's breaker/retry state.
	FedPeerState = fed.PeerState
	// FederationDTO is the federation block of the health heartbeat.
	FederationDTO = remote.FederationDTO
)

var (
	// NewFedRouter joins a service to a federation; attach the result
	// to the daemon's RemoteServer with SetFederation.
	NewFedRouter = fed.New
	// ErrFedUnavailable reports a strict-mode federated query that
	// could not reach every shard.
	ErrFedUnavailable = fed.ErrUnavailable
)

// ErrNoCredit is IngestStream.Send's backpressure signal: the daemon's
// credit window is exhausted, retry after acks drain (ResilientSink
// and Batcher handle it automatically).
var ErrNoCredit = mwrpc.ErrNoCredit

// Distribution constructors.
var (
	NewRemoteServer = remote.NewServer
	// DialLocation connects with default fault-tolerance settings
	// (bounded retries with backoff, session resumption on reconnect).
	DialLocation = remote.DialLocation
	// DialLocationOptions connects with explicit fault-tolerance
	// settings.
	DialLocationOptions = remote.DialLocationOptions
	NewRegistryServer   = registry.NewServer
	DialRegistry        = registry.Dial
)

// ---------------------------------------------------------------------------
// Spatial queries (§5.1's SQL-style queries over the object table)

// SpatialQuery is a parsed mwql statement.
type SpatialQuery = mwql.Query

// ParseQuery parses an mwql statement such as
// "SELECT objects WHERE prop('power-outlets') = 'yes' NEAREST (0,0) LIMIT 1".
var ParseQuery = mwql.Parse

// ExecQuery parses and runs an mwql statement against a spatial
// database.
var ExecQuery = mwql.Exec

// ---------------------------------------------------------------------------
// Calibration (the paper's §11 future work, implemented)

type (
	// CalibrationTrial is one ground-truth-labelled detection
	// opportunity.
	CalibrationTrial = calibrate.Trial
	// CalibrationEpisode summarizes a presence episode for carry-
	// probability estimation.
	CalibrationEpisode = calibrate.Episode
	// DecaySample is an empirical point for tdf fitting.
	DecaySample = calibrate.DecaySample
	// TDFFit is a fitted temporal degradation function.
	TDFFit = calibrate.TDFFit
	// YZEstimate carries estimated detection/misreport probabilities.
	YZEstimate = calibrate.YZEstimate
)

// Calibration estimators: detection model, carry probability (labelled
// and EM), tdf fitting, and full-spec assembly.
var (
	EstimateYZ            = calibrate.EstimateYZ
	EstimateCarryLabelled = calibrate.EstimateCarryLabelled
	EstimateCarryEM       = calibrate.EstimateCarryEM
	FitTDF                = calibrate.FitTDF
	CalibrateSpec         = calibrate.CalibrateSpec
)

// ---------------------------------------------------------------------------
// Observability (metrics, pipeline traces, debug server)

type (
	// ObsRegistry is a set of named counters, gauges, and latency
	// histograms; Default() holds the built-in instrumentation.
	ObsRegistry = obs.Registry
	// ObsTracer records per-reading pipeline traces.
	ObsTracer = obs.Tracer
	// ObsTrace is one reading's recorded trip through the pipeline.
	ObsTrace = obs.Trace
	// ObsSpan is one timed stage of a trace.
	ObsSpan = obs.Span
	// ObsDebugServer serves /metrics, /debug/traces, and pprof.
	ObsDebugServer = obs.DebugServer
	// StatsDTO is the observability snapshot returned by mw.stats.
	StatsDTO = remote.StatsDTO
	// HistogramDTO is a histogram snapshot on the wire.
	HistogramDTO = remote.HistogramDTO
	// TraceDTO is a pipeline trace on the wire.
	TraceDTO = remote.TraceDTO
)

var (
	// EnableObservability turns span tracing on or off process-wide.
	// Metric counters and histograms always record (they are
	// allocation-free); tracing is the part worth gating.
	EnableObservability = obs.SetEnabled
	// ObservabilityEnabled reports whether span tracing is on.
	ObservabilityEnabled = obs.Enabled
	// ObsDefault returns the process-global metrics registry.
	ObsDefault = obs.Default
	// ObsDefaultTracer returns the process-global tracer.
	ObsDefaultTracer = obs.DefaultTracer
	// StartObsDebugServer serves /metrics, /debug/traces, and
	// /debug/pprof/* on addr (e.g. "127.0.0.1:7771").
	StartObsDebugServer = obs.StartDebugServer
	// ObsMetricsText renders a registry in the Prometheus text shape.
	ObsMetricsText = obs.MetricsTextString
	// SetObsDaemonLabel sets the daemon name stamped on trace spans
	// recorded in this process (the daemon's -name flag routes here).
	SetObsDaemonLabel = obs.SetDaemonLabel
)

// ---------------------------------------------------------------------------
// SLO tracking (windowed latency objectives over registry histograms)

type (
	// SLO is one windowed latency objective ("ingest p99 < 2ms over 1m").
	SLO = obs.SLO
	// SLOStatus is an objective's last windowed evaluation.
	SLOStatus = obs.SLOStatus
	// SLOTracker samples histograms on a cadence and evaluates the
	// objectives, exporting slo_* metrics.
	SLOTracker = obs.SLOTracker
	// SLODTO is one objective's evaluation in the health heartbeat.
	SLODTO = remote.SLODTO
)

var (
	// ParseSLOs parses the daemon's -slo flag syntax:
	// "ingest=p99<2ms,query=p99<10ms@30s".
	ParseSLOs = obs.ParseSLOs
	// NewSLOTracker builds a tracker; attach it to the daemon's
	// RemoteServer with SetSLOTracker so health replies carry it.
	NewSLOTracker = obs.NewSLOTracker
)

// ---------------------------------------------------------------------------
// Cluster observability (federated metric aggregation)

type (
	// ClusterDaemon is one scrape target of the cluster aggregator.
	ClusterDaemon = cluster.Daemon
	// ClusterScrape is one daemon's snapshot (or scrape error).
	ClusterScrape = cluster.Scrape
)

var (
	// ClusterFetch discovers a deployment's daemons via the registry,
	// scrapes each one's mw.stats, and merges: counters sum, version
	// gauges take the max, histograms merge bucket-wise (honest cluster
	// quantiles), traces join by ID into cross-daemon span trees.
	ClusterFetch = cluster.Fetch
	// ClusterDiscover lists a deployment's daemons from the registry.
	ClusterDiscover = cluster.Discover
	// ClusterScrapeAll scrapes a daemon set in parallel.
	ClusterScrapeAll = cluster.ScrapeAll
	// ClusterMerge folds scrapes into one snapshot plus the names of
	// unreachable daemons.
	ClusterMerge = cluster.Merge
	// ClusterMetricsHandler serves the merged snapshot as /metrics
	// exposition text (mwregistry mounts it at /metrics/cluster).
	ClusterMetricsHandler = cluster.MetricsHandler
)
