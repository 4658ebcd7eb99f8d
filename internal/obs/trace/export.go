package trace

import (
	"net/http"

	"gallery/internal/obs"
)

// IngestRequest is the wire form of a cross-process span shipment:
// galleryserve POSTs this to galleryd's /v1/debug/traces so the spans of
// one request, opened in two processes, land in a single buffer.
type IngestRequest struct {
	Spans []SpanData `json:"spans"`
}

// HTTPExporter ships kept traces to a peer's POST /v1/debug/traces over
// the shared telemetry shipper; Export never blocks the request path.
type HTTPExporter struct{ *obs.Shipper[IngestRequest] }

// NewHTTPExporter builds an exporter posting to url with an optional
// bearer token (see obs.NewShipper).
func NewHTTPExporter(url, token string, hc *http.Client) *HTTPExporter {
	return &HTTPExporter{obs.NewShipper[IngestRequest](url, token, hc)}
}

// Export implements Exporter.
func (e *HTTPExporter) Export(spans []SpanData) { e.Send(IngestRequest{Spans: spans}) }
