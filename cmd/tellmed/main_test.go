package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/netboard"
	"tellme/internal/serve"
	"tellme/internal/telemetry"
)

func TestResolveBoardInProcess(t *testing.T) {
	b, err := resolveBoard("", 8, 32, "json", telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*billboard.Board); !ok {
		t.Fatalf("empty spec resolved to %T, want *billboard.Board", b)
	}
}

func TestResolveBoardSingleURL(t *testing.T) {
	b, err := resolveBoard(" http://localhost:7070 ", 8, 32, "json", telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := b.(*netboard.Cluster)
	if !ok {
		t.Fatalf("single URL resolved to %T, want *netboard.Cluster", b)
	}
	if got := c.Shards(); len(got) != 1 || got[0] != "http://localhost:7070" {
		t.Fatalf("shards = %q, want the one trimmed URL", got)
	}
}

func TestResolveBoardCluster(t *testing.T) {
	b, err := resolveBoard("http://a:1,http://b:2", 8, 32, "json", telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*netboard.Cluster); !ok {
		t.Fatalf("shard list resolved to %T, want *netboard.Cluster", b)
	}
	if _, err := resolveBoard("http://a:1,", 8, 32, "json", telemetry.New()); err == nil {
		t.Fatal("empty shard in list must be rejected")
	}
}

// TestDaemonAgainstClusterBoard is the end-to-end smoke for the wiring
// main performs: a two-shard billboard cluster, a serving engine
// resolved from the comma-separated spec, and the HTTP API on top —
// join, recommend from a completed epoch, leave.
func TestDaemonAgainstClusterBoard(t *testing.T) {
	const m = 32
	var backends []*httptest.Server
	var urls []string
	for i := 0; i < 2; i++ {
		bs := httptest.NewServer(netboard.NewServer(billboard.New(8, m)))
		t.Cleanup(bs.Close)
		backends = append(backends, bs)
		urls = append(urls, bs.URL)
	}
	reg := telemetry.New()
	board, err := resolveBoard(strings.Join(urls, ","), 8, m, "binary", reg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := serve.New(serve.Config{M: m, Capacity: 8, Alpha: 0.4, Board: board, Seed: 42, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(serve.Handler(engine, serve.HandlerConfig{RecommendDeadline: 10 * time.Second, Telemetry: reg}))
	t.Cleanup(front.Close)
	stop := startEpochLoop(t, engine)
	defer stop()

	bits := strings.Repeat("10", m/2)
	var ids [2]uint64
	for i := range ids {
		body, _ := json.Marshal(map[string]string{"bits": bits})
		resp, err := http.Post(front.URL+"/v1/players", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			ID uint64 `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("join status %d", resp.StatusCode)
		}
		ids[i] = reply.ID
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/recommend/%d", front.URL, ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend status %d", resp.StatusCode)
	}
	var rec struct {
		Epoch int64  `json:"epoch"`
		Bits  string `json:"bits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Epoch < 1 || rec.Bits != bits {
		t.Fatalf("recommend = %+v, want epoch >= 1 and bits %q", rec, bits)
	}
	req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/players/%d", front.URL, ids[0]), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("leave status %d", dresp.StatusCode)
	}
}

// startEpochLoop runs the engine loop the way main does and returns the
// shutdown half of the wiring.
func startEpochLoop(t *testing.T, e *serve.Engine) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(ctx, 50*time.Millisecond)
	}()
	return func() { cancel(); <-done }
}
