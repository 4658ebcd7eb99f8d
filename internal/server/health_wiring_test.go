package server_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/daemon"
	"gallery/internal/forecast"
	"gallery/internal/rules"
)

// TestContinuousHealthEndToEnd drives the whole model-health pipeline over
// real HTTP, with no manual metric ingestion anywhere: a serving gateway
// records distribution sketches of what the model predicts, flushes them
// to galleryd through the client, the monitor detects the live
// distribution drifting off its reference via PSI, flips the model to
// degraded, and the resulting health.drift event fires a retrain rule in
// the engine.
func TestContinuousHealthEndToEnd(t *testing.T) {
	// The monitor loop is off (the test drives Evaluate) and the gateway's
	// flush period is long enough never to fire: each window below is
	// flushed explicitly.
	gd, gdURL := startRegistry(t, func(c *daemon.RegistryConfig) {
		c.HealthRefWindows, c.HealthInterval = 2, -1
	})
	c := client.New(gdURL, nil)
	repo, eng, mon := gd.Rules, gd.Engine, gd.Monitor

	// The standing policy: when a model's live distribution drifts hard,
	// retrain it.
	if _, err := repo.Commit("oncall", "retrain on drift", []*rules.Rule{{
		UUID:        "5dfc0f60-0000-4000-8000-0000000000e2",
		Team:        "forecasting",
		Name:        "retrain-on-drift",
		Kind:        rules.KindAction,
		When:        `health.event == "drift" && health.psi > 0.25`,
		Environment: "production",
		Actions:     []rules.ActionRef{{Action: "retrain"}},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var fired []*rules.ActionContext
	eng.RegisterAction("retrain", func(ac *rules.ActionContext) error {
		mu.Lock()
		defer mu.Unlock()
		fired = append(fired, ac)
		return nil
	})

	// A model whose prediction is the last history value, promoted to
	// production through the API.
	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-demand", Project: "forecasting", Name: "demand", Domain: "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	in, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "demand", City: "sf", Blob: blob})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PromoteInstance(in.ID); err != nil {
		t.Fatal(err)
	}

	// The gateway loads models from galleryd and flushes health windows
	// back into it, both through the same HTTP client.
	gs, _ := startGateway(t, gdURL, func(c *daemon.GatewayConfig) {
		c.Name, c.Refresh, c.HealthFlush = "gw-e2e", -1, time.Hour
	})
	gw := gs.Gateway

	serveWindow := func(mean float64, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			// Heuristic{K:1} predicts the last history value, so traffic
			// with a shifted tail shifts the model's output distribution.
			hist := []float64{mean, mean, mean + 20*rng.NormFloat64()}
			if _, err := gw.Predict(m.ID, forecast.Context{History: hist}); err != nil {
				t.Fatal(err)
			}
		}
		if err := gw.FlushHealth(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Five windows of reference-shaped traffic: two become the reference,
	// three fill the live ring (health.Config's default LiveWindows).
	// Verdict: healthy.
	for s := int64(0); s < 5; s++ {
		serveWindow(200, 100+s)
	}
	mon.Evaluate(context.Background())
	mh, err := c.ModelHealth(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Status != "healthy" {
		t.Fatalf("baseline status = %s (%v) psi=%g", mh.Status, mh.Reasons, mh.PSI)
	}
	if mh.InstanceID != in.ID {
		t.Fatalf("health tracks instance %s, want %s", mh.InstanceID, in.ID)
	}

	// The world changes: live traffic shifts 1.6x. The sketches flushed by
	// the gateway carry the evidence; nothing else is ingested. Three
	// windows replace the whole live ring.
	for s := int64(0); s < 3; s++ {
		serveWindow(320, 200+s)
	}
	mon.Evaluate(context.Background())
	eng.Flush()

	mh, err = c.ModelHealth(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Status != "degraded" || mh.PSI < 0.25 {
		t.Fatalf("post-shift status = %s psi=%g (%v), want degraded", mh.Status, mh.PSI, mh.Reasons)
	}
	list, err := c.ListModelHealth()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ModelID != m.ID {
		t.Fatalf("health list = %+v", list)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 {
		t.Fatalf("retrain fired %d times, want 1", len(fired))
	}
	if fired[0].Instance == nil || fired[0].Instance.ID.String() != in.ID {
		t.Fatalf("retrain action context = %+v", fired[0].Instance)
	}
}
