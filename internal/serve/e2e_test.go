package serve_test

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/daemon"
	"gallery/internal/forecast"
)

// TestEndToEndDeployLoop drives the full closed loop of the paper's §4.2
// dynamic-switching story, over real HTTP at both tiers:
//
//	metric write → action rule fires → "deploy" callback promotes the
//	instance in core → the gateway's next refresh hot-swaps → traffic is
//	served by the new instance
//
// with predictions hammering the gateway the whole time and zero failures.
// Both daemons come out of the composition root, so the "deploy" action is
// the one galleryd registers.
func TestEndToEndDeployLoop(t *testing.T) {
	gd, gdURL := startRegistry(t, nil)
	c := client.New(gdURL, nil)

	// Model with two instances: a baseline Heuristic{K:1} (answers the
	// last observed value) and a challenger Heuristic{K:2} (mean of the
	// last two). Uploads auto-promote the uploader's new version, so after
	// both uploads the baseline is explicitly re-promoted — from here on,
	// only the rule engine's deploy action can move production back to the
	// challenger.
	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-demand",
		Project:       "marketplace",
		Name:          "demand",
		Domain:        "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blobA, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	instA, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "baseline", City: "sf", Blob: blobA})
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := forecast.Encode(&forecast.Heuristic{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	instB, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "challenger", City: "sf", Blob: blobB})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PromoteInstance(instA.ID); err != nil {
		t.Fatal(err)
	}
	if v, err := c.ProductionVersion(m.ID); err != nil || v.InstanceID != instA.ID {
		t.Fatalf("production = %+v (err %v), want baseline %s", v, err, instA.ID)
	}

	// The gateway serves the baseline. Its refresh loop is off so that only
	// the explicit RefreshAll below can observe the promotion.
	gs, gsURL := startGateway(t, gdURL, func(c *daemon.GatewayConfig) { c.Refresh = -1 })
	gc := client.New(gsURL, nil)

	hist := []float64{10, 20}
	resp, err := gc.Predict(m.ID, api.PredictRequest{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != 20 || resp.InstanceID != instA.ID {
		t.Fatalf("baseline prediction = %+v, want value 20 from %s", resp, instA.ID)
	}

	// Keep traffic flowing through the whole promotion.
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		failed atomic.Int64
		total  atomic.Int64
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := gc.Predict(m.ID, api.PredictRequest{History: hist}); err != nil {
					failed.Add(1)
				}
				total.Add(1)
			}
		}()
	}

	// An action rule that deploys any instance of this model whose
	// validation MAPE beats 0.1.
	ruleJSON := json.RawMessage(`{
		"uuid": "8d7e0b9e-3f3c-4a6f-9a46-2f62a37b2f10",
		"team": "forecasting",
		"name": "deploy-on-accuracy",
		"kind": "action",
		"given": "model_name == 'demand' && model_domain == 'UberX'",
		"when": "metrics.mape < 0.1",
		"environment": "production",
		"callback_actions": [
			{"action": "deploy"},
			{"action": "log", "params": {"message": "deployed challenger"}}
		]
	}`)
	if _, err := c.CommitRules("ci", "deploy rule", []json.RawMessage{ruleJSON}, nil); err != nil {
		t.Fatal(err)
	}

	// The challenger's metric write is what fires the rule; nothing else
	// touches the production pointer from here.
	if _, err := c.InsertMetric(instB.ID, "mape", "validation", 0.05); err != nil {
		t.Fatal(err)
	}
	gd.Server.Flush() // drain the engine's async dispatch

	// The rule must have promoted the challenger in core...
	v, err := c.ProductionVersion(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.InstanceID != instB.ID {
		t.Fatalf("production instance = %s, want challenger %s (rule did not deploy)", v.InstanceID, instB.ID)
	}

	// ...and the gateway's next refresh serves it, mid-traffic.
	gs.Gateway.RefreshAll()
	resp, err = gc.Predict(m.ID, api.PredictRequest{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InstanceID != instB.ID || resp.Value != 15 {
		t.Fatalf("post-deploy prediction = %+v, want value 15 from %s", resp, instB.ID)
	}

	stop.Store(true)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d predictions failed during the deploy loop", failed.Load(), total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("no background predictions ran")
	}

	// The rule's log callback leaves an audit trail of the deployment.
	alerts, err := c.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts {
		if a.Action == "log" && a.InstanceID == instB.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deployment log alert for %s in %+v", instB.ID, alerts)
	}
}

// TestGatewayHTTPErrors covers the handler's error mapping.
func TestGatewayHTTPErrors(t *testing.T) {
	_, gdURL := startRegistry(t, nil)
	_, gsURL := startGateway(t, gdURL, nil)
	gc := client.New(gsURL, nil)

	// Unknown model: Gallery's 404 passes through the gateway.
	_, err := gc.Predict("1b4e28ba-2fa1-11d2-883f-0016d3cca427", api.PredictRequest{History: []float64{1}})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 404 {
		t.Fatalf("unknown model err = %v, want 404", err)
	}

	// Empty history is rejected by the gateway itself.
	_, err = gc.Predict("whatever", api.PredictRequest{})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("empty history err = %v, want 400", err)
	}

	// Serving status is empty but well-formed.
	st, err := gc.ServingStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 0 {
		t.Fatalf("status = %+v, want empty", st)
	}
}
