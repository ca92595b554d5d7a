package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tellme/internal/bitvec"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// HandlerConfig configures the HTTP front of an Engine.
type HandlerConfig struct {
	// RecommendDeadline is the default per-request deadline of
	// GET /v1/recommend/{id} (how long a request may wait for the next
	// epoch to cover its player). 0 means DefaultRecommendDeadline. A
	// request may shorten it with ?wait=<duration> but never exceed it.
	RecommendDeadline time.Duration
	// Telemetry, if non-nil, is exposed at GET /debug/telemetry.
	Telemetry *telemetry.Registry
}

// DefaultRecommendDeadline bounds recommendation requests that must
// wait for an epoch when the handler config does not say otherwise.
const DefaultRecommendDeadline = 10 * time.Second

// Handler exposes the engine's serving API over HTTP:
//
//	POST   /v1/players          {"bits":"0101..."} → {"id":N}
//	POST   /v1/players/batch    {"players":[{"bits":...},...]} → {"ids":[...]}
//	DELETE /v1/players/{id}     retire at the next epoch boundary
//	GET    /v1/recommend/{id}   → {"id":N,"epoch":E,"bits":"01?..."}
//	GET    /v1/status           → {"epoch":E,"members":K,...}
//	GET    /debug/telemetry     registry snapshot as JSON
//
// Recommendations are answered from the latest completed epoch; a
// request whose player is not covered yet waits up to the per-request
// deadline (504 on expiry).
//
// Bodies default to JSON and negotiate the binary wire codec per
// request: a binary Content-Type selects the binary decoder, a binary
// Accept selects the binary encoder (see internal/wire and DESIGN.md
// §15). Error replies are always JSON — they are rare and meant for
// humans.
func Handler(e *Engine, hc HandlerConfig) http.Handler {
	if hc.RecommendDeadline <= 0 {
		hc.RecommendDeadline = DefaultRecommendDeadline
	}
	ins := func(path string) wire.Instruments {
		return wire.NewInstruments(hc.Telemetry, "serve.http", path)
	}
	joinIns := ins("/v1/players")
	batchIns := ins("/v1/players/batch")
	recIns := ins("/v1/recommend")
	statusIns := ins("/v1/status")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/players", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if status, err := wire.DecodeRequest(r, &req, joinIns); status != 0 {
			httpError(w, status, fmt.Errorf("bad join body: %w", err))
			return
		}
		truth, err := vectorFromBits(req.Bits, e.cfg.M)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		id, err := e.Join(truth)
		if errors.Is(err, ErrFull) {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		wire.WriteReplyStatus(w, r, http.StatusCreated,
			&joinReply{ID: id, Epoch: e.CompletedEpochs()}, joinIns)
	})
	mux.HandleFunc("POST /v1/players/batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchJoinRequest
		if status, err := wire.DecodeRequest(r, &req, batchIns); status != 0 {
			httpError(w, status, fmt.Errorf("bad batch join body: %w", err))
			return
		}
		truths := make([]bitvec.Vector, len(req.Players))
		for i, p := range req.Players {
			v, err := vectorFromBits(p.Bits, e.cfg.M)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("player %d: %w", i, err))
				return
			}
			truths[i] = v
		}
		ids, err := e.JoinBatch(truths)
		if errors.Is(err, ErrFull) {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		wire.WriteReplyStatus(w, r, http.StatusCreated,
			&batchJoinReply{IDs: ids, Epoch: e.CompletedEpochs()}, batchIns)
	})
	mux.HandleFunc("DELETE /v1/players/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad player id: %w", err))
			return
		}
		if err := e.Leave(id); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/recommend/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad player id: %w", err))
			return
		}
		deadline := hc.RecommendDeadline
		if s := r.URL.Query().Get("wait"); s != "" {
			// Non-positive waits are rejected, not honored: wait=0 would
			// install an already-expired timeout and turn every request
			// into an instant 504 instead of the 400 the caller needs to
			// see to fix its query string.
			d, err := time.ParseDuration(s)
			if err != nil || d <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q (want a positive duration)", s))
				return
			}
			if d < deadline {
				deadline = d
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		out, epoch, err := e.Recommend(ctx, id)
		switch {
		case errors.Is(err, ErrUnknownPlayer):
			httpError(w, http.StatusNotFound, err)
			return
		case errors.Is(err, ErrNotReady):
			httpError(w, http.StatusGatewayTimeout, err)
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		wire.WriteReply(w, r, &recommendReply{ID: id, Epoch: epoch, Bits: out.String()}, recIns)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		st := statusReply{
			Epoch:    e.CompletedEpochs(),
			Players:  e.Players(),
			Capacity: e.cfg.Capacity,
			M:        e.cfg.M,
			Pending:  e.sched.Pending(),
		}
		if s := e.Snapshot(); s != nil {
			st.Members = s.Stats.Members
			st.MaxErr = s.Stats.MaxErr
			st.MeanErr = s.Stats.MeanErr
			st.Refresh = s.Refresh
			st.EpochMillis = s.Duration.Milliseconds()
		}
		wire.WriteReply(w, r, &st, statusIns)
	})
	if hc.Telemetry != nil {
		mux.HandleFunc("GET /debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			hc.Telemetry.WriteJSON(w)
		})
		mux.HandleFunc("GET /debug/telemetry/prometheus", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			hc.Telemetry.WritePrometheus(w)
		})
	}
	return mux
}

type joinRequest struct {
	// Bits is the player's preference vector as a '0'/'1' string of
	// length M — the ground truth its probes answer from.
	Bits string `json:"bits"`
}

// batchJoinRequest admits a whole fleet in one request — the bulk path
// of Engine.JoinBatch: all-or-nothing, ids in input order.
type batchJoinRequest struct {
	Players []joinRequest `json:"players"`
}

type batchJoinReply struct {
	IDs []uint64 `json:"ids"`
	// Epoch is the number of epochs completed at join time.
	Epoch int64 `json:"epoch"`
}

type joinReply struct {
	ID uint64 `json:"id"`
	// Epoch is the number of epochs completed at join time; the player
	// is covered from some later epoch on.
	Epoch int64 `json:"epoch"`
}

type recommendReply struct {
	ID uint64 `json:"id"`
	// Epoch is the completed epoch the recommendation was computed in.
	Epoch int64 `json:"epoch"`
	// Bits is the reconstructed preference vector over '0'/'1'/'?'.
	Bits string `json:"bits"`
}

type statusReply struct {
	Epoch       int64   `json:"epoch"`
	Players     int     `json:"players"`
	Members     int     `json:"members"`
	Capacity    int     `json:"capacity"`
	M           int     `json:"m"`
	Pending     int     `json:"pendingChurn"`
	Refresh     bool    `json:"refresh"`
	MaxErr      int     `json:"maxErr"`
	MeanErr     float64 `json:"meanErr"`
	EpochMillis int64   `json:"epochMillis"`
}

type errorReply struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorReply{Error: err.Error()})
}

// vectorFromBits parses a '0'/'1' string of length m into a Vector.
func vectorFromBits(bits string, m int) (bitvec.Vector, error) {
	if len(bits) != m {
		return bitvec.Vector{}, fmt.Errorf("serve: preference bits length %d, want %d", len(bits), m)
	}
	v := bitvec.New(m)
	for i := 0; i < m; i++ {
		switch bits[i] {
		case '0':
		case '1':
			v.Set(i, 1)
		default:
			return bitvec.Vector{}, fmt.Errorf("serve: preference bits must be '0'/'1', got %q at %d", bits[i], i)
		}
	}
	return v, nil
}
