package server

import (
	"fmt"
	"net/http"

	"gallery/internal/core"
	"gallery/internal/obs/profile"
)

// handleIngestProfile accepts one process's summary shipment: the
// cross-process ingest gateways ship into, publisher-class like POST
// /v1/debug/traces. 202 like the trace ingest: the shipment is folded
// into in-memory rings, not durably stored. GET /v1/debug/profile renders
// the fleet through httpmw.Debug.
func (s *Server) handleIngestProfile(w http.ResponseWriter, r *http.Request) {
	var req profile.IngestRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Process == "" {
		writeErr(w, fmt.Errorf("%w: process must not be empty", core.ErrBadSpec))
		return
	}
	if len(req.Summaries) == 0 {
		writeErr(w, fmt.Errorf("%w: summaries must not be empty", core.ErrBadSpec))
		return
	}
	s.profiles.Ingest(req.Process, req.Summaries)
	w.WriteHeader(http.StatusAccepted)
}
