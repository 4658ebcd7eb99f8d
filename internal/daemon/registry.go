package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gallery/internal/blobstore"
	"gallery/internal/core"
	"gallery/internal/health"
	"gallery/internal/incident"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/profile"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/server"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/wal"
)

// RegistryStack is a built galleryd: the stateless service over the
// write-ahead-logged metadata store and the blob store, with the rule
// engine and the observability subsystems attached.
type RegistryStack struct {
	Stack
	Rules    *rules.Repo
	Engine   *rules.Engine
	Monitor  *health.Monitor
	Recorder *incident.Recorder
	Tenants  *tenant.Manager // nil without -auth
	Server   *server.Server
	// Bootstrap is the secret of the operator token this start minted
	// because an authed store held no tokens; empty otherwise.
	Bootstrap string
}

// Registry builds galleryd from cfg. On error, whatever it had started is
// stopped again.
func Registry(cfg RegistryConfig) (_ *RegistryStack, err error) {
	if cfg.TokenFile != "" && !cfg.Auth {
		return nil, errors.New("-token-file requires -auth")
	}
	st := &RegistryStack{Stack: Stack{Name: "galleryd", Addr: cfg.Addr}}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	logs, logger, err := cfg.telemetry(&st.Stack, nil)
	if err != nil {
		return nil, err
	}
	meta, blobs, err := cfg.openStores(&st.Stack)
	if err != nil {
		return nil, err
	}
	meta.Instrument(cfg.Obs)
	blobs.Instrument(cfg.Obs)
	reg, err := core.New(meta, blobs, core.Options{AuditKeep: cfg.AuditKeep, Obs: cfg.Obs})
	if err != nil {
		return nil, fmt.Errorf("init registry: %w", err)
	}
	st.Rules = rules.NewRepo(nil)
	st.Engine = rules.NewEngine(reg, st.Rules, nil)
	st.Engine.Instrument(cfg.Obs)
	// "deploy" closes the loop with the serving tier: a rule firing it
	// promotes the triggering instance, and watching gateways hot-swap to
	// it on their next refresh.
	st.Engine.RegisterAction("deploy", rules.DeployAction(reg))

	// The local profiler exports into the fleet store gateways also ship
	// into (POST /v1/debug/profile); regressions become rule events.
	fleet := profile.NewFleet(0)
	profiler, err := cfg.profiler(&st.Stack, st.Engine, fleet)
	if err != nil {
		return nil, err
	}

	// The incident flight recorder snapshots this process on SLO burns,
	// health degradations, the "capture" rule action and POST
	// /v1/incidents. The monitor and SLO evaluator are bound after
	// construction: they take the recorder as a sink, and it bundles
	// their state.
	st.Recorder, err = incident.Open(reg.DAL(), incident.Config{
		Obs: cfg.Obs, Tracer: st.Tracer, Logs: logs, Audit: reg.Audit(), Profiles: profiler.Ring(),
		Gateway: cfg.IncidentGateway, GatewayToken: cfg.IncidentGatewayToken,
		Keep: cfg.IncidentKeep, Debounce: cfg.IncidentDebounce,
	})
	if err != nil {
		return nil, fmt.Errorf("open incident recorder: %w", err)
	}
	st.Engine.RegisterAction("capture", incident.CaptureAction(st.Recorder))
	st.Engine.Start(cfg.Workers)
	st.onClose(st.Engine.Stop)

	// Gateways flush prediction sketches in; the monitor judges them on a
	// ticker and feeds degradations to the engine and the recorder.
	st.Monitor = health.New(reg, health.Config{
		Metric: cfg.HealthMetric, ReferenceWindows: cfg.HealthRefWindows, KeepWindows: cfg.HealthKeep,
		Interval: cfg.HealthInterval, Obs: cfg.Obs, Events: st.Engine, Transitions: st.Recorder,
	})
	if err := st.Monitor.Recover(); err != nil {
		return nil, fmt.Errorf("recover health windows: %w", err)
	}
	st.Monitor.Start()
	st.onClose(st.Monitor.Stop)
	st.Recorder.BindHealth(st.Monitor)

	if cfg.Auth {
		if err := st.openTenants(&cfg, meta, reg); err != nil {
			return nil, err
		}
	}

	// The SLO evaluator reads the per-tenant RED vectors the HTTP
	// middleware records (NewRED is get-or-create) and keeps objectives in
	// the shared WAL. Model-scoped objectives need the predict vectors,
	// which live in the gateway's process, so they are rejected here with
	// slo.ErrNoSource.
	red := httpmw.NewRED(cfg.Obs)
	sloSvc, err := slo.Open(meta, slo.VecSource{Requests: red.Requests, Errors: red.Errors, Latency: red.Latency},
		slo.Config{Tick: cfg.SLOInterval, Obs: cfg.Obs, Audit: reg.Audit(), Burns: st.Recorder})
	if err != nil {
		return nil, fmt.Errorf("open slo store: %w", err)
	}
	if cfg.SLOInterval > 0 {
		sloSvc.Start()
		st.onClose(sloSvc.Stop)
	}
	st.Recorder.BindSLO(sloSvc)

	st.Server = server.NewWith(reg, st.Rules, st.Engine, server.Options{
		Obs: cfg.Obs, AccessLog: logger, Tracer: st.Tracer, Pprof: cfg.Pprof, Logs: logs,
		Health: st.Monitor, Tenants: st.Tenants, SLO: sloSvc, Incidents: st.Recorder, Profiles: fleet,
	})
	st.Handler = st.Server
	st.onClose(st.Server.Close)
	// First at Close: drain queued rule-engine events, then dump the final
	// metric snapshot (the JSON /v1/debug/metrics serves).
	st.onClose(func() {
		st.Server.Flush()
		if cfg.DumpMetrics {
			fmt.Fprintln(os.Stderr, "galleryd: final metrics snapshot:")
			if err := cfg.Obs.WriteJSON(os.Stderr); err != nil {
				log.Printf("galleryd: dump metrics: %v", err)
			}
		}
	})
	models, instances, metrics := reg.Counts()
	st.banner = fmt.Sprintf("galleryd: serving on %s (models=%d instances=%d metrics=%d, durable=%v)",
		cfg.Addr, models, instances, metrics, !cfg.Mem)
	return st, nil
}

// openStores opens the stores: in memory under -mem, otherwise meta.wal
// and blobs/ under -data, compacting an oversized WAL first.
func (cfg *RegistryConfig) openStores(st *Stack) (*relstore.Store, *blobstore.Store, error) {
	if cfg.Mem {
		return relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), nil
	}
	if err := os.MkdirAll(cfg.Data, 0o755); err != nil {
		return nil, nil, fmt.Errorf("create data dir: %w", err)
	}
	walPath := filepath.Join(cfg.Data, "meta.wal")
	meta, err := relstore.Open(walPath, wal.Options{Sync: cfg.Fsync})
	if err != nil {
		return nil, nil, fmt.Errorf("open metadata store: %w", err)
	}
	st.onClose(func() { meta.Close() })
	if before := meta.LogSize(); cfg.CompactMB > 0 && before > cfg.CompactMB<<20 {
		if err := meta.Compact(walPath); err != nil {
			return nil, nil, fmt.Errorf("compact metadata WAL: %w", err)
		}
		log.Printf("galleryd: compacted metadata WAL %d -> %d bytes", before, meta.LogSize())
	}
	blobs, err := blobstore.NewDisk(filepath.Join(cfg.Data, "blobs"), blobstore.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("open blob store: %w", err)
	}
	return meta, blobs, nil
}

// openTenants opens the control plane over the metadata store, so
// namespaces, token hashes and quota usage replay from the same WAL as
// the models. A first authed boot with no credentials would lock everyone
// out, so it mints a bootstrap operator token whose secret is printed
// once and never stored.
func (st *RegistryStack) openTenants(cfg *RegistryConfig, meta *relstore.Store, reg *core.Registry) error {
	tm, err := tenant.Open(meta, tenant.Options{Obs: cfg.Obs, Audit: reg.Audit()})
	if err != nil {
		return fmt.Errorf("open tenant control plane: %w", err)
	}
	if err := cfg.applySeed(tm); err != nil {
		return err
	}
	st.Tenants = tm
	if tm.TokenCount() > 0 {
		return nil
	}
	secret, tok, err := tm.MintToken(context.Background(), tenant.DefaultNamespace, "bootstrap-admin", tenant.RoleOperator)
	if err != nil {
		return fmt.Errorf("mint bootstrap token: %w", err)
	}
	st.Bootstrap = secret
	fmt.Printf("galleryd: minted bootstrap operator token %s — save this secret, it is shown once:\n%s\n", tok.ID, secret)
	return nil
}
