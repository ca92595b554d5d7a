package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// daemon spins up an Engine with its HTTP front and a background epoch
// loop, the way cmd/tellmed wires them.
func daemon(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	reg := telemetry.New()
	e, err := New(Config{M: 32, Capacity: 8, Alpha: 0.4, Seed: 42, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(e, HandlerConfig{RecommendDeadline: 5 * time.Second, Telemetry: reg}))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(ctx, 50*time.Millisecond)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return srv, e
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPJoinRecommendLeave(t *testing.T) {
	srv, _ := daemon(t)
	bits := strings.Repeat("10", 16)
	var joined joinReply
	// Join two players with identical tastes so the community is large
	// enough for alpha = 0.4.
	if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: bits}, &joined); code != http.StatusCreated {
		t.Fatalf("join status %d", code)
	}
	var other joinReply
	if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: bits}, &other); code != http.StatusCreated {
		t.Fatalf("join status %d", code)
	}
	var rec recommendReply
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/recommend/%d", srv.URL, joined.ID), nil, &rec); code != http.StatusOK {
		t.Fatalf("recommend status %d", code)
	}
	if rec.Epoch < 1 || rec.Bits != bits {
		t.Fatalf("recommend = %+v, want epoch >= 1 and bits %q", rec, bits)
	}
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/players/%d", srv.URL, joined.ID), nil, nil); code != http.StatusNoContent {
		t.Fatalf("leave status %d", code)
	}
	// After a boundary passes, the id stops resolving.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := doJSON(t, "GET", fmt.Sprintf("%s/v1/recommend/%d?wait=10ms", srv.URL, joined.ID), nil, nil)
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("departed player still resolving (last status %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHTTPValidationAndDeadline(t *testing.T) {
	srv, _ := daemon(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: "101"}, nil); code != http.StatusBadRequest {
		t.Fatalf("short bits: status %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: strings.Repeat("2", 32)}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad alphabet: status %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/recommend/notanumber", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/recommend/424242", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", code)
	}
	// A joined player with ?wait too short to reach the next epoch gets
	// 504 — the per-request deadline contract.
	var joined joinReply
	if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: strings.Repeat("1", 32)}, &joined); code != http.StatusCreated {
		t.Fatalf("join status %d", code)
	}
	code := doJSON(t, "GET", fmt.Sprintf("%s/v1/recommend/%d?wait=1ns", srv.URL, joined.ID), nil, nil)
	if code != http.StatusGatewayTimeout && code != http.StatusOK {
		t.Fatalf("deadline status %d, want 504 (or 200 if an epoch already covered the player)", code)
	}
}

func TestHTTPStatusAndTelemetry(t *testing.T) {
	srv, e := daemon(t)
	bits := strings.Repeat("01", 16)
	for i := 0; i < 2; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: bits}, nil); code != http.StatusCreated {
			t.Fatalf("join status %d", code)
		}
	}
	// Wait for a covering epoch so status reports members.
	deadline := time.Now().Add(5 * time.Second)
	for e.CompletedEpochs() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no epochs completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var st statusReply
	if code := doJSON(t, "GET", srv.URL+"/v1/status", nil, &st); code != http.StatusOK {
		t.Fatalf("status status %d", code)
	}
	if st.Epoch < 2 || st.Capacity != 8 || st.M != 32 || st.Players != 2 {
		t.Fatalf("status = %+v", st)
	}
	resp, err := http.Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("telemetry not JSON: %v", err)
	}
}

// TestHTTPWaitValidation pins the wait= parsing table. The regression
// case is wait=0: ParseDuration accepts it, and before the d <= 0 guard
// the handler installed an already-expired timeout — every request
// instantly 504ed instead of 400ing on the malformed query.
func TestHTTPWaitValidation(t *testing.T) {
	srv, _ := daemon(t)
	var joined joinReply
	if code := doJSON(t, "POST", srv.URL+"/v1/players", joinRequest{Bits: strings.Repeat("1", 32)}, &joined); code != http.StatusCreated {
		t.Fatalf("join status %d", code)
	}
	cases := []struct {
		wait string
		want []int
	}{
		{"0", []int{http.StatusBadRequest}},
		{"0s", []int{http.StatusBadRequest}},
		{"-5ms", []int{http.StatusBadRequest}},
		{"bogus", []int{http.StatusBadRequest}},
		{"12", []int{http.StatusBadRequest}}, // ParseDuration wants a unit
		{"1ns", []int{http.StatusGatewayTimeout, http.StatusOK}},
		{"2s", []int{http.StatusOK}},
	}
	for _, tc := range cases {
		code := doJSON(t, "GET", fmt.Sprintf("%s/v1/recommend/%d?wait=%s", srv.URL, joined.ID, tc.wait), nil, nil)
		ok := false
		for _, w := range tc.want {
			ok = ok || code == w
		}
		if !ok {
			t.Fatalf("wait=%q: status %d, want one of %v", tc.wait, code, tc.want)
		}
	}
}

func TestHTTPBatchJoin(t *testing.T) {
	srv, e := daemon(t)
	bits := strings.Repeat("10", 16)
	req := batchJoinRequest{Players: []joinRequest{{Bits: bits}, {Bits: bits}, {Bits: bits}}}
	var rep batchJoinReply
	if code := doJSON(t, "POST", srv.URL+"/v1/players/batch", req, &rep); code != http.StatusCreated {
		t.Fatalf("batch join status %d", code)
	}
	if len(rep.IDs) != 3 {
		t.Fatalf("batch ids = %v, want 3", rep.IDs)
	}
	for i := 1; i < len(rep.IDs); i++ {
		if rep.IDs[i] <= rep.IDs[i-1] {
			t.Fatalf("batch ids not ascending: %v", rep.IDs)
		}
	}
	if e.Players() != 3 {
		t.Fatalf("players = %d, want 3", e.Players())
	}
	// Every admitted player is eventually served.
	var rec recommendReply
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/recommend/%d?wait=5s", srv.URL, rep.IDs[2]), nil, &rec); code != http.StatusOK {
		t.Fatalf("recommend status %d", code)
	}
	if rec.Bits != bits {
		t.Fatalf("recommend bits = %q, want %q", rec.Bits, bits)
	}

	// One bad vector rejects the whole batch: all-or-nothing.
	bad := batchJoinRequest{Players: []joinRequest{{Bits: bits}, {Bits: "101"}}}
	if code := doJSON(t, "POST", srv.URL+"/v1/players/batch", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("bad batch status %d", code)
	}
	if e.Players() != 3 {
		t.Fatalf("players after rejected batch = %d, want 3", e.Players())
	}

	// A batch larger than the free capacity is refused whole (503), and
	// admits nobody.
	over := batchJoinRequest{Players: make([]joinRequest, 6)} // 5 slots free of 8
	for i := range over.Players {
		over.Players[i] = joinRequest{Bits: bits}
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/players/batch", over, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("overfull batch status %d", code)
	}
	if e.Players() != 3 {
		t.Fatalf("players after overfull batch = %d, want 3", e.Players())
	}
}

// TestHTTPOverCapBodyIs413: a join body past wire.MaxBodyBytes is
// refused with 413 and admits nobody, whether its length is declared
// up front or only found while reading a chunked body.
func TestHTTPOverCapBodyIs413(t *testing.T) {
	srv, e := daemon(t)
	body := `{"players":[{"bits":"` + strings.Repeat("1", wire.MaxBodyBytes) + `"}]}`
	for _, path := range []string{"/v1/players", "/v1/players/batch"} {
		for _, declared := range []bool{true, false} {
			var r io.Reader = strings.NewReader(body)
			if !declared {
				r = io.MultiReader(r) // hides the length: sent chunked
			}
			resp, err := http.Post(srv.URL+path, "application/json", r)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, declared length %v: status %d, want 413", path, declared, resp.StatusCode)
			}
		}
	}
	if e.Players() != 0 {
		t.Fatalf("an over-cap body admitted %d players", e.Players())
	}
}

// TestHTTPBinaryHeadersGetJSON: the front speaks JSON only, so a body
// labelled with the binary media type is read as JSON and a binary
// Accept header still gets a JSON reply.
func TestHTTPBinaryHeadersGetJSON(t *testing.T) {
	srv, _ := daemon(t)
	req, err := http.NewRequest("POST", srv.URL+"/v1/players", strings.NewReader(`{"bits":"`+strings.Repeat("01", 16)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	req.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep joinReply
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("Content-Type") != wire.MediaJSON {
		t.Fatalf("status %d, Content-Type %q; want 201 and %q", resp.StatusCode, resp.Header.Get("Content-Type"), wire.MediaJSON)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || rep.ID == 0 {
		t.Fatalf("join reply %+v, err %v", rep, err)
	}
}
