package netboard

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// DefaultDedupeWindow is the number of recently applied request ids the
// server remembers for idempotent retries (see HeaderRequestID).
const DefaultDedupeWindow = 4096

// DefaultDedupeMaxAge is how long an applied request id stays in the
// idempotency window when the count cap alone would retain it longer.
// Client retries arrive within seconds (the jittered linear backoff
// schedule), so minutes of retention is generous — and it means a
// server that saw one traffic burst does not pin the burst's ids in
// memory for the rest of its life.
const DefaultDedupeMaxAge = 5 * time.Minute

// Server serves a billboard.Board over HTTP.
type Server struct {
	board  *billboard.Board
	mux    *http.ServeMux
	dedupe *dedupe

	// wireIns holds the per-endpoint wire instruments (bytes in/out,
	// encode/decode latency), resolved once at registration; entries are
	// the zero no-op Instruments when telemetry is off.
	wireIns map[string]wire.Instruments

	tel          *telemetry.Registry
	dedupeHits   *telemetry.Counter
	dedupeApply  *telemetry.Counter
	noIDRequests *telemetry.Counter
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithDedupeWindow sets how many request ids the idempotency window
// retains (default DefaultDedupeWindow). Zero disables deduplication;
// size the window to cover at least the mutations in flight during one
// client retry storm, or a very delayed retry could be re-applied.
func WithDedupeWindow(n int) ServerOption {
	return func(s *Server) { s.dedupe = newDedupe(n) }
}

// WithTelemetry attaches a telemetry registry: per-endpoint request
// counters ("netboard.server.requests.<path>") and latency histograms
// ("netboard.server.latency_ns.<path>"), dedupe hit/apply counters,
// and the /debug/telemetry endpoints (JSON, plus Prometheus text at
// /debug/telemetry/prometheus). The registry is shared — attach the
// same one to the board via Board.SetTelemetry to serve its counters
// from the same endpoint.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.tel = reg }
}

// NewServer wraps board in an HTTP handler.
func NewServer(board *billboard.Board, opts ...ServerOption) *Server {
	s := &Server{
		board:   board,
		mux:     http.NewServeMux(),
		dedupe:  newDedupe(DefaultDedupeWindow),
		wireIns: make(map[string]wire.Instruments),
	}
	for _, o := range opts {
		o(s)
	}
	if s.tel != nil {
		s.dedupeHits = s.tel.Counter("netboard.server.dedupe.hits")
		s.dedupeApply = s.tel.Counter("netboard.server.dedupe.applied")
		s.noIDRequests = s.tel.Counter("netboard.server.dedupe.no_id")
		s.mux.HandleFunc(PathTelemetry, s.readOnly(s.handleTelemetry))
		s.mux.HandleFunc(PathTelemetryProm, s.readOnly(s.handleTelemetryProm))
	}
	s.handle(PathProbedObjects, s.readOnly(s.handleProbedObjects))
	s.handle(PathPostings, s.readOnly(s.handlePostings))
	s.handle(PathValuePostings, s.readOnly(s.handleValuePostings))
	s.handle(PathStats, s.readOnly(s.handleStats))
	s.handle(PathBatchLookups, s.readOnly(s.handleBatchLookups))
	s.handle(PathPostBatch, s.handlePostBatch)
	s.handle(PathTopicSnapshot, s.readOnly(s.handleTopicSnapshot))
	s.handle(PathClearProbes, s.handleClearProbes)
	s.handle(PathQuiesce, s.readOnly(s.handleQuiesce))
	return s
}

// handle registers h, wrapped with the per-endpoint request counter and
// latency histogram when telemetry is attached. Instruments are
// resolved once at registration; the per-request cost is two atomic
// updates.
func (s *Server) handle(path string, h http.HandlerFunc) {
	s.wireIns[path] = wire.NewInstruments(s.tel, "netboard.server", path)
	if s.tel != nil {
		reqs := s.tel.Counter("netboard.server.requests." + path)
		lat := s.tel.Histogram("netboard.server.latency_ns."+path, telemetry.LatencyBuckets())
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			reqs.Inc()
			start := time.Now()
			inner(w, r)
			lat.ObserveSince(start)
		}
	}
	s.mux.HandleFunc(path, h)
}

// handleTelemetry serves the registry snapshot as JSON.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.tel.WriteJSON(w)
}

// handleTelemetryProm serves the registry snapshot in the Prometheus
// text exposition format.
func (s *Server) handleTelemetryProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.WritePrometheus(w)
}

// ServeHTTP implements http.Handler. It is the protocol-version seam:
// every response is stamped with "Tellme-Proto: 1" (the client refuses
// to decode 2xx responses without it), and a request carrying a
// *different* version is rejected with 400 before any handler runs. A
// request without the header is served — curl and older clients keep
// working; only an explicit mismatch is an error.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderProto, ProtoVersion)
	if got := r.Header.Get(HeaderProto); got != "" && got != ProtoVersion {
		http.Error(w, fmt.Sprintf("protocol version mismatch: client speaks %s=%s, server speaks %s", HeaderProto, got, ProtoVersion), http.StatusBadRequest)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// readOnly enforces GET on read handlers, mirroring readBody's POST
// check on the mutating ones.
func (s *Server) readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// apply runs a validated mutation through the idempotency window and
// acknowledges it. A replayed request id is acknowledged identically
// without re-applying.
func (s *Server) apply(w http.ResponseWriter, r *http.Request, mutate func()) {
	id := r.Header.Get(HeaderRequestID)
	if id == "" {
		s.noIDRequests.Inc()
	}
	if s.dedupe.Do(id, mutate) {
		s.dedupeApply.Inc()
	} else {
		s.dedupeHits.Inc()
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeReply encodes v per the request's Accept header (JSON unless the
// client asked for binary) and writes it with the matching
// Content-Type. JSON replies are byte-identical to the pre-codec
// json.Encoder output.
func (s *Server) writeReply(w http.ResponseWriter, r *http.Request, path string, v wire.Message) {
	wire.WriteReply(w, r, v, s.wireIns[path])
}

// readBody checks that a mutating request is a POST and decodes its
// body per its Content-Type — binary bodies through the binary codec,
// everything else as JSON — answering 405/415/400 itself on failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, path string, v wire.Message) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if status, err := wire.DecodeRequest(r, v, s.wireIns[path]); status != 0 {
		http.Error(w, err.Error(), status)
		return false
	}
	return true
}

// playerParam parses the player query parameter and validates range.
func (s *Server) playerParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	p, err := strconv.Atoi(r.URL.Query().Get("player"))
	if err != nil || p < 0 || p >= s.board.N() {
		http.Error(w, "invalid player", http.StatusBadRequest)
		return 0, false
	}
	return p, true
}

// topicParam rejects the empty topic name: every topic endpoint would
// otherwise silently operate on the "" topic, which no algorithm uses —
// an empty name is always a malformed client.
func topicParam(w http.ResponseWriter, topic string) bool {
	if topic == "" {
		http.Error(w, errEmptyTopic.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) validPlayer(w http.ResponseWriter, player int) bool {
	if err := s.checkPlayer(player); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

var (
	errInvalidPlayer = errors.New("invalid player")
	errInvalidObject = errors.New("invalid object")
	errGrade         = errors.New("grade must be 0 or 1")
	errEmptyTopic    = errors.New("empty topic")
)

func (s *Server) checkPlayer(player int) error {
	if player < 0 || player >= s.board.N() {
		return errInvalidPlayer
	}
	return nil
}

func (s *Server) checkObject(object int) error {
	if object < 0 || object >= s.board.M() {
		return errInvalidObject
	}
	return nil
}

// The post mutations below check one entry of a post batch against
// the board and return the function that applies it. A batch carries
// a single probe result as a one-object probe set.

func (s *Server) probesMutation(req *batchProbesPost) (func(), error) {
	if err := s.checkPlayer(req.Player); err != nil {
		return nil, err
	}
	if len(req.Grades) != len(req.Objects) {
		return nil, fmt.Errorf("%d grades for %d objects", len(req.Grades), len(req.Objects))
	}
	grades := make([]byte, len(req.Objects))
	for k, o := range req.Objects {
		if err := s.checkObject(o); err != nil {
			return nil, err
		}
		switch req.Grades[k] {
		case '0':
		case '1':
			grades[k] = 1
		default:
			return nil, errGrade
		}
	}
	return func() { s.board.PostProbes(req.Player, req.Objects, grades) }, nil
}

func (s *Server) valuesMutation(req *valuesPost) (func(), error) {
	if req.Topic == "" {
		return nil, errEmptyTopic
	}
	if err := s.checkPlayer(req.Player); err != nil {
		return nil, err
	}
	return func() { s.board.PostValues(req.Topic, req.Player, req.Vals) }, nil
}

// vectorMutation needs no check of the vector itself: the JSON form
// rejects malformed '0'/'1'/'?' strings in Bits.UnmarshalJSON, and the
// binary form clamps planes to the invariant in PartialFromPlanes.
func (s *Server) vectorMutation(req *vectorPost) (func(), error) {
	if req.Topic == "" {
		return nil, errEmptyTopic
	}
	if err := s.checkPlayer(req.Player); err != nil {
		return nil, err
	}
	return func() { s.board.Post(req.Topic, req.Player, req.Bits.P) }, nil
}

func (s *Server) dropMutation(req *dropPost) (func(), error) {
	if req.Topic == "" {
		return nil, errEmptyTopic
	}
	return func() { s.board.DropTopic(req.Topic) }, nil
}

// handlePostBatch applies a post batch, the one request that writes
// board data: every post is checked before any is applied, so one bad
// post answers 400 and leaves the board untouched, and the posts then
// apply in order under the request's one id — a retried or duplicated
// batch applies once.
func (s *Server) handlePostBatch(w http.ResponseWriter, r *http.Request) {
	var req postBatch
	if !s.readBody(w, r, PathPostBatch, &req) {
		return
	}
	muts := make([]func(), len(req.Posts))
	for i := range req.Posts {
		var err error
		switch p := &req.Posts[i]; {
		case p.kinds() != 1:
			err = errors.New("want exactly one of probes, values, vector, drop")
		case p.Probes != nil:
			muts[i], err = s.probesMutation(p.Probes)
		case p.Values != nil:
			muts[i], err = s.valuesMutation(p.Values)
		case p.Vector != nil:
			muts[i], err = s.vectorMutation(p.Vector)
		default:
			muts[i], err = s.dropMutation(p.Drop)
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("post %d: %v", i, err), http.StatusBadRequest)
			return
		}
	}
	s.apply(w, r, func() {
		for _, m := range muts {
			m()
		}
	})
}

func (s *Server) handleBatchLookups(w http.ResponseWriter, r *http.Request) {
	p, ok := s.playerParam(w, r)
	if !ok {
		return
	}
	raw := r.URL.Query().Get("objects")
	if raw == "" {
		http.Error(w, "missing objects", http.StatusBadRequest)
		return
	}
	parts := strings.Split(raw, ",")
	objs := make([]int, len(parts))
	for k, part := range parts {
		o, err := strconv.Atoi(part)
		if err != nil || o < 0 || o >= s.board.M() {
			http.Error(w, "invalid object", http.StatusBadRequest)
			return
		}
		objs[k] = o
	}
	grades := make([]byte, len(objs))
	known := make([]bool, len(objs))
	s.board.LookupProbes(p, objs, grades, known)
	gw := make([]byte, len(objs))
	for k := range objs {
		switch {
		case !known[k]:
			gw[k] = '?'
		case grades[k] != 0:
			gw[k] = '1'
		default:
			gw[k] = '0'
		}
	}
	s.writeReply(w, r, PathBatchLookups, &batchLookupsReply{Grades: string(gw)})
}

func (s *Server) handleProbedObjects(w http.ResponseWriter, r *http.Request) {
	p, ok := s.playerParam(w, r)
	if !ok {
		return
	}
	reply := probedObjectsReply{Objects: []objGrade{}}
	s.board.ForEachProbe(p, func(o int, g byte) {
		reply.Objects = append(reply.Objects, objGrade{Object: o, Grade: g})
	})
	s.writeReply(w, r, PathProbedObjects, &reply)
}

func (s *Server) handlePostings(w http.ResponseWriter, r *http.Request) {
	topic := r.URL.Query().Get("topic")
	if !topicParam(w, topic) {
		return
	}
	postings := s.board.Postings(topic)
	out := make(postingList, len(postings))
	for i, p := range postings {
		out[i] = postingJSON{Player: p.Player, Bits: wire.Bits{P: p.Vec}}
	}
	s.writeReply(w, r, PathPostings, &out)
}

func votesToWire(votes []billboard.Vote) voteList {
	out := make(voteList, len(votes))
	for i, v := range votes {
		out[i] = voteJSON{Bits: wire.Bits{P: v.Vec}, Count: v.Count, Voters: v.Voters}
	}
	return out
}

func (s *Server) handleValuePostings(w http.ResponseWriter, r *http.Request) {
	topic := r.URL.Query().Get("topic")
	if !topicParam(w, topic) {
		return
	}
	postings := s.board.ValuePostings(topic)
	out := make(valuePostingList, len(postings))
	for i, p := range postings {
		out[i] = valuePostingJSON{Player: p.Player, Vals: p.Vals}
	}
	s.writeReply(w, r, PathValuePostings, &out)
}

func valueVotesToWire(votes []billboard.ValueVote) valueVoteList {
	out := make(valueVoteList, len(votes))
	for i, v := range votes {
		out[i] = valueVoteJSON{Vals: v.Vals, Count: v.Count, Voters: v.Voters}
	}
	return out
}

func (s *Server) handleTopicSnapshot(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	topic := q.Get("topic")
	if !topicParam(w, topic) {
		return
	}
	// Absent/garbled stamps parse as 0; no topic generation is ever 0,
	// so that always misses and returns the full snapshot.
	sinceGen, _ := strconv.ParseUint(q.Get("gen"), 10, 64)
	sinceEpoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	gen, epoch, unchanged, votes, valVotes := s.board.TopicSnapshot(topic, sinceGen, sinceEpoch)
	reply := topicSnapshotReply{Gen: gen, Epoch: epoch, Unchanged: unchanged}
	if !unchanged {
		reply.Votes = votesToWire(votes)
		reply.ValueVotes = valueVotesToWire(valVotes)
	}
	s.writeReply(w, r, PathTopicSnapshot, &reply)
}

// handleClearProbes is the admin mutation that clears the given probe
// results (the serving daemon frees a departed player's slot with it).
// Idempotent like every mutation (a retry with the same request id is
// acknowledged without re-applying), and clearing an object the player
// never probed is a no-op, so a retried clear that partially applied
// converges.
func (s *Server) handleClearProbes(w http.ResponseWriter, r *http.Request) {
	var req clearProbesPost
	if !s.readBody(w, r, PathClearProbes, &req) {
		return
	}
	if !s.validPlayer(w, req.Player) {
		return
	}
	for _, o := range req.Objects {
		if err := s.checkObject(o); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	s.apply(w, r, func() { s.board.ClearProbes(req.Player, req.Objects) })
}

// handleQuiesce blocks until every mutation the server has started
// applying has finished, then acknowledges. An audit calls this before
// reading the counters, so a post whose response was lost in the
// network — applied here, client still retrying — is counted.
func (s *Server) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	s.dedupe.Quiesce()
	s.writeReply(w, r, PathQuiesce, &quiesceReply{Idle: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeReply(w, r, PathStats, &statsReply{
		ProbeCount:      s.board.ProbeCount(),
		VectorPostCount: s.board.VectorPostCount(),
		TopicCount:      s.board.TopicCount(),
		N:               s.board.N(),
		M:               s.board.M(),
	})
}
