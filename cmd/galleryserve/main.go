// Command galleryserve runs the Gallery prediction serving gateway: a
// stateless HTTP tier that pulls promoted model instances out of a
// galleryd and answers forecast queries with them, hot-swapping on
// promotion (the paper's §2 realtime prediction service, closed-loop with
// the §4.2 rule engine).
//
// Usage:
//
//	galleryserve -addr :8441 -gallery http://localhost:8440
//	galleryserve -addr :8441 -auth -token-file tokens.json -token gal_...  # multi-tenant
//
// Predictions:
//
//	curl -s localhost:8441/v1/predict/<model-id> \
//	    -d '{"history":[10,12,11,13,12,14]}'
//
// Per-tenant and per-model RED metrics are recorded on every request and
// exposed for scraping in Prometheus text format at
// GET /v1/debug/metrics/prom (JSON snapshot at /v1/debug/metrics).
package main

import (
	"flag"
	"log"

	"gallery/internal/daemon"
)

func main() {
	cfg := daemon.GatewayFlags(flag.CommandLine)
	flag.Parse()
	st, err := daemon.Gateway(*cfg)
	if err == nil {
		err = daemon.Run(&st.Stack)
	}
	if err != nil {
		log.Fatalf("galleryserve: %v", err)
	}
}
