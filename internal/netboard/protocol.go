// Package netboard exposes a billboard over HTTP, turning the paper's
// shared billboard into an actual service: a Server wraps an in-memory
// billboard.Board, and a Client implements billboard.Interface against
// it, so the unchanged algorithm code runs with players and board in
// different processes.
//
// Bodies travel in one of two codecs (internal/wire, DESIGN.md §15):
// JSON, where vectors are '0'/'1'/'?' strings and value vectors plain
// arrays (debuggable with curl), or the packed binary codec. A client
// uses the one codec its Config names; the server decodes each request
// by its Content-Type and encodes the reply per its Accept header, and
// answers 415 to a binary version it does not speak. There is no
// authentication, but the transport is built to survive a faulty
// network (see DESIGN.md §8 for the full wire contract):
//
//   - Batching: /v1/batch/posts is the one endpoint that writes board
//     data. It applies an ordered list of posts of every kind (probe
//     sets, value vectors, vectors and topic drops: a deferred view's
//     phase, see boardclient.Defer), and a single post travels as a
//     one-entry batch. /v1/batch/lookups reads a set of probe results,
//     and /v1/topic-snapshot returns a topic's vote tallies stamped with
//     the board's (generation, epoch) pair so clients re-download
//     tallies only when the topic actually changed.
//   - Idempotency: every mutating request carries a client-generated
//     request id (HeaderRequestID); the server deduplicates ids inside a
//     sliding window, so a retry of a request whose response was lost is
//     applied exactly once.
//   - Failure handling: the Client retries transient failures with
//     jittered linear backoff and routes terminal errors, 4xx included,
//     to Config.OnError, which defaults to panicking because
//     billboard.Interface is error-free by design; a non-panicking
//     OnError puts the client in degraded mode (see Client.Err).
package netboard

import "tellme/internal/wire"

// Paths of the HTTP endpoints.
const (
	PathProbedObjects = "/v1/probed-objects" // GET: all of one player's probe results
	PathPostings      = "/v1/postings"       // GET: vector postings of a topic
	PathValuePostings = "/v1/value-postings" // GET: value postings of a topic
	PathStats         = "/v1/stats"          // GET: counters
	PathBatchLookups  = "/v1/batch/lookups"  // GET: look up many probe results at once
	PathPostBatch     = "/v1/batch/posts"    // POST: apply an ordered list of posts of any kind
	PathTopicSnapshot = "/v1/topic-snapshot" // GET: epoch-tagged vote tallies of a topic
	PathTopics        = "/v1/topics"         // GET: names of all live topics (drain enumeration)

	// Admin endpoints used by the cluster reshard/drain path.
	// clear-probes removes a player's probe results for a set of objects
	// after they have been replayed onto the objects' new owner shard.
	// quiesce blocks until every mutation the server has started
	// applying is finished (so a subsequent read sees it). drop-topic-if
	// drops a topic only if its posting counts still match what the
	// drain replayed — the conditional that keeps a straggler's late
	// commit from vanishing with the drop.
	PathClearProbes = "/v1/admin/clear-probes"  // POST: clear probe results
	PathQuiesce     = "/v1/admin/quiesce"       // GET: wait out in-flight mutations
	PathDropTopicIf = "/v1/admin/drop-topic-if" // POST: conditional topic drop

	// Telemetry endpoints, registered only when the server was built
	// with WithTelemetry.
	PathTelemetry     = "/debug/telemetry"            // GET: registry snapshot as JSON
	PathTelemetryProm = "/debug/telemetry/prometheus" // GET: Prometheus text format
)

// HeaderRequestID carries the client-generated idempotency key of a
// mutating request. The server applies each id at most once within its
// dedupe window; a retried request with the same id is acknowledged
// without being re-applied. Requests without the header are applied
// unconditionally (curl-friendly, at the caller's own retry risk).
const HeaderRequestID = "Tellme-Request-Id"

// HeaderProto makes the wire protocol version explicit. The client
// stamps every request with it and the server rejects a mismatched
// version with 400 before touching any handler; the server stamps every
// response and the client refuses to decode a 2xx response without the
// right stamp (a typed *ProtoError instead of garbage), so a Cluster
// pointed at something that is not a tellme billboard of this protocol
// generation fails fast and loud.
const (
	HeaderProto  = "Tellme-Proto"
	ProtoVersion = "1"
)

// probedObjectsReply answers PathProbedObjects; pairs of (object, grade).
type probedObjectsReply struct {
	Objects []objGrade `json:"objects"`
}

type objGrade struct {
	Object int  `json:"object"`
	Grade  byte `json:"grade"`
}

// vectorPost is a vector entry of a postBatch.
type vectorPost struct {
	Topic  string    `json:"topic"`
	Player int       `json:"player"`
	Bits   wire.Bits `json:"bits"` // '0'/'1'/'?' string in JSON, packed planes in binary
}

// postingJSON is one vector posting in replies.
type postingJSON struct {
	Player int       `json:"player"`
	Bits   wire.Bits `json:"bits"`
}

// postingList is the PathPostings reply body.
type postingList []postingJSON

// voteJSON is one tallied vector vote in replies.
type voteJSON struct {
	Bits   wire.Bits `json:"bits"`
	Count  int       `json:"count"`
	Voters []int     `json:"voters"`
}

// voteList is the Votes field of a topic snapshot.
type voteList []voteJSON

// valuesPost is a value-vector entry of a postBatch.
type valuesPost struct {
	Topic  string   `json:"topic"`
	Player int      `json:"player"`
	Vals   []uint32 `json:"vals"`
}

// valuePostingJSON is one value posting in replies.
type valuePostingJSON struct {
	Player int      `json:"player"`
	Vals   []uint32 `json:"vals"`
}

// valuePostingList is the PathValuePostings reply body.
type valuePostingList []valuePostingJSON

// valueVoteJSON is one tallied value vote in replies.
type valueVoteJSON struct {
	Vals   []uint32 `json:"vals"`
	Count  int      `json:"count"`
	Voters []int    `json:"voters"`
}

// valueVoteList is the ValueVotes field of a topic snapshot.
type valueVoteList []valueVoteJSON

// dropPost is a topic-drop entry of a postBatch.
type dropPost struct {
	Topic string `json:"topic"`
}

// batchProbesPost is a probe-set entry of a postBatch: grades[k] (a
// '0'/'1' character, same alphabet as the vector wire form) is the
// player's grade for objects[k]. Objects must be in range. One may
// repeat, as in a deferred view's run when its player probed an object
// again; the first grade for it stands, as with repeated PostProbe.
type batchProbesPost struct {
	Player  int    `json:"player"`
	Objects []int  `json:"objects"`
	Grades  string `json:"grades"`
}

// postBatch is the POST body for PathPostBatch: posts applied in
// order, all or none (the server checks every post before applying
// any), under the request's one idempotency key.
type postBatch struct {
	Posts []batchPost `json:"posts"`
}

// batchPost is one post of a postBatch. Exactly one field is set. A
// single probe result travels as a one-object Probes.
type batchPost struct {
	Probes *batchProbesPost `json:"probes,omitempty"`
	Values *valuesPost      `json:"values,omitempty"`
	Vector *vectorPost      `json:"vector,omitempty"`
	Drop   *dropPost        `json:"drop,omitempty"`
}

// kinds counts the fields set; a well-formed post has one.
func (p *batchPost) kinds() int {
	n := 0
	for _, set := range [...]bool{p.Probes != nil, p.Values != nil, p.Vector != nil, p.Drop != nil} {
		if set {
			n++
		}
	}
	return n
}

// batchLookupsReply answers PathBatchLookups
// (GET ?player=P&objects=o1,o2,...): one '0'/'1'/'?' character per
// requested object, '?' meaning "not posted".
type batchLookupsReply struct {
	Grades string `json:"grades"`
}

// topicSnapshotReply answers PathTopicSnapshot
// (GET ?topic=T[&gen=G&epoch=E]). Gen/Epoch stamp the topic's current
// content. When the caller's gen/epoch query already matches, Unchanged
// is true and the tallies are omitted — the caller keeps what it
// fetched at that stamp; otherwise both tallies are included.
type topicSnapshotReply struct {
	Gen        uint64        `json:"gen"`
	Epoch      uint64        `json:"epoch"`
	Unchanged  bool          `json:"unchanged,omitempty"`
	Votes      voteList      `json:"votes,omitempty"`
	ValueVotes valueVoteList `json:"valueVotes,omitempty"`
}

// topicsReply answers PathTopics: all live topic names, sorted.
type topicsReply struct {
	Topics []string `json:"topics"`
}

// clearProbesPost is the POST body for PathClearProbes.
type clearProbesPost struct {
	Player  int   `json:"player"`
	Objects []int `json:"objects"`
}

// quiesceReply answers PathQuiesce once the server is idle.
type quiesceReply struct {
	Idle bool `json:"idle"`
}

// dropIfPost is the POST body for PathDropTopicIf: drop Topic only if
// it holds exactly Vectors vector postings and Values value postings.
// The caller verifies the outcome by re-reading the topic (the 204
// acknowledgement deliberately carries no result: a deduplicated retry
// could not reproduce it).
type dropIfPost struct {
	Topic   string `json:"topic"`
	Vectors int    `json:"vectors"`
	Values  int    `json:"values"`
}

// statsReply answers PathStats.
type statsReply struct {
	ProbeCount      int64 `json:"probeCount"`
	VectorPostCount int64 `json:"vectorPostCount"`
	TopicCount      int   `json:"topicCount"`
	N               int   `json:"n"`
	M               int   `json:"m"`
}
