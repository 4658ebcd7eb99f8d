package daemon

import (
	"flag"
	"time"

	"gallery/internal/obs"
	"gallery/internal/obs/profile"
)

// Common is the configuration both daemons share: one field per flag
// Common.flags declares, plus the metric registry they record into.
type Common struct {
	Addr, TraceSample, LogLevel, TokenFile string
	TraceBuffer, LogBuffer                 int
	AccessLog, Pprof, Auth                 bool

	ProfileInterval, ProfileWindow                    time.Duration
	ProfileHz, MutexProfileFraction, BlockProfileRate int
	ProfileBaseline                                   string
	ProfileFactor                                     float64

	// Obs receives every metric the daemon records; nil uses obs.Default.
	Obs *obs.Registry
}

// flags declares the flags both daemons take; process names the daemon in
// help text and addr is its default listen address.
func (c *Common) flags(fs *flag.FlagSet, process, addr string) {
	fs.StringVar(&c.Addr, "addr", addr, "listen address")
	fs.BoolVar(&c.AccessLog, "access-log", false, "write a JSON access-log line per request to stderr")
	fs.StringVar(&c.TraceSample, "trace-sample", "errslow:250ms", "trace sampler: never | always | errslow:<dur> | <probability 0..1>")
	fs.IntVar(&c.TraceBuffer, "trace-buffer", 256, "completed traces kept for /v1/debug/traces")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose net/http/pprof under /v1/debug/pprof/ (profiles can leak memory contents; opt-in)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "min level entering the /v1/debug/logs ring: debug|info|warn|error")
	fs.IntVar(&c.LogBuffer, "log-buffer", 1024, "structured log lines kept for /v1/debug/logs")
	fs.DurationVar(&c.ProfileInterval, "profile-interval", profile.DefaultInterval, "continuous-profiler cycle period (negative disables the capture loop)")
	fs.DurationVar(&c.ProfileWindow, "profile-window", profile.DefaultWindow, "CPU sampling window per profiler cycle")
	fs.IntVar(&c.ProfileHz, "profile-hz", profile.DefaultHz, "CPU profile sample rate")
	fs.StringVar(&c.ProfileBaseline, "profile-baseline", "", "per-process CPU baseline JSON (PROFILE_"+process+".json); regressions against it set the profile_regression gauge, and on galleryd raise profile.regression rule events")
	fs.Float64Var(&c.ProfileFactor, "profile-factor", profile.DefaultFactor, "flag a function when its CPU self-share exceeds baseline by this factor")
	fs.IntVar(&c.MutexProfileFraction, "mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events (0 disables)")
	fs.IntVar(&c.BlockProfileRate, "block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events >= n ns (0 disables)")
	fs.BoolVar(&c.Auth, "auth", false, "enforce the multi-tenant control plane: bearer tokens, roles, quotas, rate limits (galleryserve needs -token-file)")
	fs.StringVar(&c.TokenFile, "token-file", "", "JSON seed of namespaces and pre-shared tokens applied at boot (see internal/tenant.Seed)")
}

// RegistryConfig configures galleryd, one field per flag.
type RegistryConfig struct {
	Common
	Data, HealthMetric, IncidentGateway, IncidentGatewayToken      string
	Mem, Fsync, DumpMetrics                                        bool
	Workers, AuditKeep, HealthRefWindows, HealthKeep, IncidentKeep int
	CompactMB                                                      int64
	HealthInterval, SLOInterval, IncidentDebounce                  time.Duration
}

// RegistryFlags declares galleryd's flags on fs and returns the config
// they parse into; until fs is parsed it holds the defaults.
func RegistryFlags(fs *flag.FlagSet) *RegistryConfig {
	c := &RegistryConfig{}
	c.Common.flags(fs, "galleryd", ":8440")
	fs.StringVar(&c.Data, "data", "gallery-data", "data directory for metadata WAL and blob replicas")
	fs.BoolVar(&c.Mem, "mem", false, "run fully in memory (no durability)")
	fs.BoolVar(&c.Fsync, "fsync", false, "fsync the metadata WAL on every write")
	fs.IntVar(&c.Workers, "workers", 4, "rule engine worker goroutines")
	fs.Int64Var(&c.CompactMB, "compact-mb", 256, "compact the metadata WAL at startup when larger than this many MiB (0 disables)")
	fs.BoolVar(&c.DumpMetrics, "dump-metrics", true, "dump the metric registry snapshot to stderr on shutdown")
	fs.IntVar(&c.AuditKeep, "audit-keep", 256, "audit events retained per entity (negative disables pruning)")
	fs.DurationVar(&c.HealthInterval, "health-interval", 30*time.Second, "model-health evaluation period (negative disables the monitor loop)")
	fs.IntVar(&c.HealthRefWindows, "health-ref-windows", 3, "observation windows that form a model's reference distribution")
	fs.IntVar(&c.HealthKeep, "health-keep-windows", 48, "persisted health windows kept per model")
	fs.StringVar(&c.HealthMetric, "health-metric", "mape", "production error metric for the monitor's drift/skew checks")
	fs.DurationVar(&c.SLOInterval, "slo-interval", 15*time.Second, "SLO burn-rate evaluation period (negative disables the evaluator)")
	fs.IntVar(&c.IncidentKeep, "incident-keep", 32, "incident bundles retained before the oldest are pruned (negative disables pruning)")
	fs.DurationVar(&c.IncidentDebounce, "incident-debounce", 5*time.Minute, "minimum interval between captures of the same scope (negative disables)")
	fs.StringVar(&c.IncidentGateway, "incident-gateway", "", "serving gateway base URL pulled into incident bundles via GET /v1/debug/bundle (empty: local snapshot only)")
	fs.StringVar(&c.IncidentGatewayToken, "incident-gateway-token", "", "bearer token for the incident gateway pull when the gateway runs -auth")
	return c
}

// GatewayConfig configures galleryserve, one field per flag.
type GatewayConfig struct {
	Common
	Gallery, Preload, Name, Token string
	Refresh, HealthFlush          time.Duration
	MaxModels, Retries            int
}

// GatewayFlags declares galleryserve's flags on fs and returns the config
// they parse into; until fs is parsed it holds the defaults.
func GatewayFlags(fs *flag.FlagSet) *GatewayConfig {
	c := &GatewayConfig{}
	c.Common.flags(fs, "galleryserve", ":8441")
	fs.StringVar(&c.Gallery, "gallery", "http://localhost:8440", "galleryd base URL")
	fs.DurationVar(&c.Refresh, "refresh", 5*time.Second, "production-pointer poll interval")
	fs.IntVar(&c.MaxModels, "max-models", 64, "LRU bound on concurrently loaded models")
	fs.StringVar(&c.Preload, "preload", "", "comma-separated model IDs to load at startup")
	fs.StringVar(&c.Name, "name", "gateway", "gateway name stamped on flushed health observations")
	fs.DurationVar(&c.HealthFlush, "health-flush", 15*time.Second, "health observation flush period (negative disables health reporting)")
	fs.IntVar(&c.Retries, "retries", 3, "gallery client retry budget per request")
	fs.StringVar(&c.Token, "token", "", "bearer token this gateway presents to galleryd (when galleryd runs -auth)")
	return c
}
