package server

import (
	"net/http/httptest"
	"testing"

	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/health"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// TestModelHealthNotFound pins the 404 path of the health read endpoints.
func TestModelHealthNotFound(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(22),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := health.New(reg, health.Config{Interval: -1, Obs: obs.NewRegistry()})
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry(), Health: mon})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.New(ts.URL, ts.Client())

	if _, err := c.ModelHealth(uuid.NewSeeded(5).New().String()); err == nil {
		t.Fatal("untracked model did not 404")
	}
	list, err := c.ListModelHealth()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("empty monitor lists %+v", list)
	}
}
