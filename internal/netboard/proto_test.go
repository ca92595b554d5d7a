package netboard

// Wire-protocol version negotiation: every server response is stamped
// with Tellme-Proto, requests that announce a different version are
// rejected with 400, and a client talking to a server that does not
// speak the protocol fails fast with a typed *ProtoError instead of
// burning its retry budget on doomed attempts.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/wire"
)

// oneProbe is a post batch of one probe result.
const oneProbe = `{"posts":[{"probes":{"player":0,"objects":[0],"grades":"1"}}]}`

// TestServerStampsProtoHeader: every response — reads, writes, and
// error responses alike — carries the protocol version header, so
// clients can verify what they are talking to on any endpoint.
func TestServerStampsProtoHeader(t *testing.T) {
	srv := httptest.NewServer(NewServer(billboard.New(4, 4)))
	defer srv.Close()

	get, err := http.Get(srv.URL + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if got := get.Header.Get(HeaderProto); got != ProtoVersion {
		t.Fatalf("GET %s: %s = %q, want %q", PathStats, HeaderProto, got, ProtoVersion)
	}

	post, err := http.Post(srv.URL+PathPostBatch, "application/json", strings.NewReader(oneProbe))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if got := post.Header.Get(HeaderProto); got != ProtoVersion {
		t.Fatalf("POST %s: %s = %q, want %q", PathPostBatch, HeaderProto, got, ProtoVersion)
	}

	// Even a rejected request gets the stamp: the 400 below is the
	// mismatch rejection itself.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+PathStats, nil)
	req.Header.Set(HeaderProto, "999")
	bad, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if got := bad.Header.Get(HeaderProto); got != ProtoVersion {
		t.Fatalf("rejected request: %s = %q, want %q", HeaderProto, got, ProtoVersion)
	}
}

// TestServerRejectsProtoMismatch: a request announcing a different
// protocol version is refused with 400 before reaching any handler.
// Requests with no header at all (curl, probes) still work.
func TestServerRejectsProtoMismatch(t *testing.T) {
	board := billboard.New(4, 4)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+PathPostBatch, strings.NewReader(oneProbe))
	req.Header.Set(HeaderProto, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched %s: status %d, want 400", HeaderProto, resp.StatusCode)
	}
	if board.ProbeCount() != 0 {
		t.Fatal("rejected request reached the board")
	}

	// Headerless requests are fine: the check only bites on an explicit
	// wrong announcement.
	bare, err := http.Post(srv.URL+PathPostBatch, "application/json", strings.NewReader(oneProbe))
	if err != nil {
		t.Fatal(err)
	}
	bare.Body.Close()
	if bare.StatusCode != http.StatusNoContent {
		t.Fatalf("headerless request: status %d, want 204", bare.StatusCode)
	}
	if board.ProbeCount() != 1 {
		t.Fatalf("headerless probe not applied: count %d", board.ProbeCount())
	}
}

// TestClientProtoMismatchTypedError: against a server that answers 2xx
// without (or with the wrong) protocol stamp, the client fails with a
// *ProtoError reachable through errors.As — and gives up after one
// attempt on a post and on a read, since no number of retries can fix
// a version mismatch.
func TestClientProtoMismatchTypedError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stamp string // value for HeaderProto; "" = no header at all
	}{
		{"missing header", ""},
		{"wrong version", "0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if tc.stamp != "" {
					w.Header().Set(HeaderProto, tc.stamp)
				}
				w.Write([]byte(`{}`))
			}))
			defer srv.Close()

			c := dial(t, srv.URL, Config{
				Retries:      5,
				RetryBackoff: time.Microsecond,
			})

			hits.Store(0)
			got := failure(func() { c.PostProbe(0, 0, 1) }) // a post
			var pe *ProtoError
			if !errors.As(got, &pe) {
				t.Fatalf("POST: error %v (%T), want a *ProtoError", got, got)
			}
			if pe.Got != tc.stamp {
				t.Fatalf("POST: ProtoError.Got = %q, want %q", pe.Got, tc.stamp)
			}
			if n := hits.Load(); n != 1 {
				t.Fatalf("POST: %d attempts, want 1 (mismatch must not be retried)", n)
			}

			pe = nil
			hits.Store(0)
			got = failure(func() { c.Votes("topic") }) // a read, whose reply is decoded
			if !errors.As(got, &pe) {
				t.Fatalf("read: error %v (%T), want a *ProtoError", got, got)
			}
			if n := hits.Load(); n != 1 {
				t.Fatalf("read: %d attempts, want 1 (mismatch must not be retried)", n)
			}

			// The typed error is wrapped in the usual terminal failure, so
			// generic transport handling still matches too.
			var te *TransportError
			if !errors.As(got, &te) {
				t.Fatalf("error %v not wrapped in *TransportError", got)
			}
		})
	}
}

// TestConfigNormalizedDefaults: NewCluster clamps invalid values to the
// documented defaults, and the zero Config is a working one: no
// retries, the default backoff unit, the JSON codec, and shard 0's
// instruments under "netboard.cluster.shard0".
func TestConfigNormalizedDefaults(t *testing.T) {
	c := dial(t, "http://x", Config{Retries: -3, RetryBackoff: -time.Second}).clients[0]
	if c.cfg.Retries != 0 {
		t.Fatalf("negative Retries clamped to %d, want 0", c.cfg.Retries)
	}
	if c.cfg.RetryBackoff != DefaultRetryBackoff {
		t.Fatalf("non-positive RetryBackoff normalized to %v, want %v", c.cfg.RetryBackoff, DefaultRetryBackoff)
	}

	z := dial(t, "http://x", Config{}).clients[0]
	if z.baseURL != "http://x" || z.cfg.Retries != 0 || z.cfg.RetryBackoff != DefaultRetryBackoff ||
		z.prefix != "netboard.cluster.shard0" || z.codec != wire.JSON {
		t.Fatalf("zero Config resolved to %s %+v, prefix %q, codec %s", z.baseURL, z.cfg, z.prefix, z.codec.Name())
	}
}
