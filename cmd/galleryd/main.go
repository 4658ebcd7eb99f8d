// Command galleryd runs the Gallery model-management service: a stateless
// JSON/HTTP server over a durable metadata store (write-ahead logged) and
// a replicated blob store, with the orchestration rule engine attached.
//
// Usage:
//
//	galleryd -addr :8440 -data /var/lib/gallery
//	galleryd -addr :8440 -mem            # volatile, for demos
//	galleryd -addr :8440 -mem -access-log  # JSON access log on stderr
//	galleryd -addr :8440 -auth           # multi-tenant: bearer tokens, roles, quotas
//	galleryd -addr :8440 -auth -token-file tokens.json  # with pre-shared credentials
//
// With -auth and no existing tokens, a bootstrap operator token for the
// "default" namespace is minted and its secret printed once at startup.
//
// An SLO evaluator ticks every -slo-interval, judging declared burn-rate
// objectives (POST /v1/slo, `galleryctl slo`) against the per-tenant RED
// metrics; metrics are scrapable at GET /v1/debug/metrics/prom.
//
// On SIGINT/SIGTERM the server drains, dumps the full metric registry
// snapshot (the same JSON served at /v1/debug/metrics) to stderr, and
// exits cleanly.
package main

import (
	"flag"
	"log"

	"gallery/internal/daemon"
)

func main() {
	cfg := daemon.RegistryFlags(flag.CommandLine)
	flag.Parse()
	st, err := daemon.Registry(*cfg)
	if err == nil {
		err = daemon.Run(&st.Stack)
	}
	if err != nil {
		log.Fatalf("galleryd: %v", err)
	}
}
