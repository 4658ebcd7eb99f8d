package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gallery/internal/core"
	"gallery/internal/obs/trace"
)

// maxIngestBytes bounds a cross-process span shipment. Traces are small
// (dozens of spans, short attrs); anything near this is abuse.
const maxIngestBytes = 4 << 20

// handleIngestTraces accepts spans shipped by a tracing peer (the serving
// gateway's exporter), merging them into this process's buffer so one
// request's spans from both processes read as a single trace.
func (s *Server) handleIngestTraces(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req trace.IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, fmt.Errorf("%w: decode spans: %v", core.ErrBadSpec, err))
		return
	}
	s.tracer.Store().Ingest(req.Spans)
	w.WriteHeader(http.StatusNoContent)
}
