// Package netboard exposes a billboard over HTTP, turning the paper's
// shared billboard into an actual service: a Server wraps an in-memory
// billboard.Board, and a Cluster implements billboard.Interface against
// one or more such servers, each owning a share of the keys, so the
// unchanged algorithm code runs with players and board in different
// processes. A single server is a one-shard Cluster.
//
// Bodies travel in one of two codecs (internal/wire, DESIGN.md §15):
// JSON, where vectors are '0'/'1'/'?' strings and value vectors plain
// arrays (debuggable with curl), or the packed binary codec. A Cluster
// uses the one codec its Config names; the server decodes each request
// by its Content-Type and encodes the reply per its Accept header, and
// answers 415 to a binary version it does not speak. There is no
// authentication, but the transport is built to survive a faulty
// network (see DESIGN.md §8 for the full wire contract):
//
//   - Batching: /v1/batch/posts is the one endpoint for board data. A
//     batch applies an ordered list of posts of every kind (probe sets,
//     value vectors, vectors and topic drops: what a deferred view held
//     since its last send, see boardclient.Defer), and then answers an
//     ordered list of reads (a topic's postings, value postings or
//     snapshot, or a player's probe lookups) from the board as it
//     stands after those posts. A single post or read travels as a
//     one-entry batch. A snapshot read returns the topic's vote tallies
//     stamped with the board's (generation, epoch) pair; a read that
//     sends the topic's current stamp gets "unchanged" instead of the
//     tallies, and the zero stamp, which no topic carries, always gets
//     them.
//   - Idempotency: every mutating request carries a client-generated
//     request id (HeaderRequestID); the server deduplicates ids inside a
//     sliding window, so a retry of a request whose response was lost is
//     applied exactly once. A retried batch's reads are answered again.
//   - Failure handling: each shard transport retries transient
//     failures with jittered linear backoff; a terminal error, 4xx
//     included, panics with a *TransportError, because
//     billboard.Interface is error-free by design. Cluster.Err and
//     Cluster.Failures record every such failure.
package netboard

import "tellme/internal/wire"

// Paths of the HTTP endpoints.
const (
	PathProbedObjects = "/v1/probed-objects" // GET: all of one player's probe results
	PathStats         = "/v1/stats"          // GET: counters
	PathPostBatch     = "/v1/batch/posts"    // POST: apply an ordered list of posts, then answer reads

	// Admin endpoints. clear-probes removes a player's probe results for
	// a set of objects: the serving daemon frees a departed player's
	// slot with it. quiesce blocks until every mutation the server has
	// started applying is finished, so a subsequent read sees it: the
	// barrier before an exact probe audit.
	PathClearProbes = "/v1/admin/clear-probes" // POST: clear probe results
	PathQuiesce     = "/v1/admin/quiesce"      // GET: wait out in-flight mutations

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

// postingList answers a postings read.
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

// valuePostingList answers a value-postings read.
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
// repeat, and its first grade stands, as with repeated PostProbe. A
// deferred view's run holds each object once (boardclient.Defer); a
// probe set posted without one may still repeat an object.
type batchProbesPost struct {
	Player  int    `json:"player"`
	Objects []int  `json:"objects"`
	Grades  string `json:"grades"`
}

// postBatch is the POST body for PathPostBatch: posts applied in
// order, all or none, under the request's one idempotency key, then
// reads answered in order from the board as it stands after them. The
// server checks every post and every read before applying any.
type postBatch struct {
	Posts []batchPost `json:"posts"`
	Reads []batchRead `json:"reads,omitempty"`
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
	return countSet(p.Probes != nil, p.Values != nil, p.Vector != nil, p.Drop != nil)
}

// batchRead is one read of a postBatch. Exactly one field is set.
type batchRead struct {
	Postings      *topicRead    `json:"postings,omitempty"`
	ValuePostings *topicRead    `json:"valuePostings,omitempty"`
	Snapshot      *snapshotRead `json:"snapshot,omitempty"`
	Lookups       *lookupsRead  `json:"lookups,omitempty"`
}

// kinds counts the fields set; a well-formed read has one.
func (r *batchRead) kinds() int {
	return countSet(r.Postings != nil, r.ValuePostings != nil, r.Snapshot != nil, r.Lookups != nil)
}

// countSet counts the true values.
func countSet(set ...bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}

// topicRead names the topic of a postings or value-postings read.
type topicRead struct {
	Topic string `json:"topic"`
}

// snapshotRead asks for a topic's snapshot. Gen/Epoch are the stamp
// the caller holds; zero, which no topic carries, always gets the
// tallies.
type snapshotRead struct {
	Topic string `json:"topic"`
	Gen   uint64 `json:"gen"`
	Epoch uint64 `json:"epoch"`
}

// lookupsRead asks for a player's grades of objects, which must be in
// range.
type lookupsRead struct {
	Player  int   `json:"player"`
	Objects []int `json:"objects"`
}

// batchReply answers a postBatch with reads: one result per read, in
// order. A batch without reads answers 204 and no body.
type batchReply struct {
	Results []readResult `json:"results"`
}

// readResult is one read's answer: the field of the read's kind is
// set.
type readResult struct {
	Postings      *postingList        `json:"postings,omitempty"`
	ValuePostings *valuePostingList   `json:"valuePostings,omitempty"`
	Snapshot      *topicSnapshotReply `json:"snapshot,omitempty"`
	Lookups       *batchLookupsReply  `json:"lookups,omitempty"`
}

// batchLookupsReply answers a lookups read: one '0'/'1'/'?' character
// per requested object, '?' meaning "not posted".
type batchLookupsReply struct {
	Grades string `json:"grades"`
}

// topicSnapshotReply answers a snapshot read. Gen/Epoch stamp the
// topic's current content. When the read's stamp already matches,
// Unchanged is true and the tallies are omitted — the caller keeps
// what it fetched at that stamp; otherwise both tallies are included.
type topicSnapshotReply struct {
	Gen        uint64        `json:"gen"`
	Epoch      uint64        `json:"epoch"`
	Unchanged  bool          `json:"unchanged,omitempty"`
	Votes      voteList      `json:"votes,omitempty"`
	ValueVotes valueVoteList `json:"valueVotes,omitempty"`
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

// statsReply answers PathStats.
type statsReply struct {
	ProbeCount      int64 `json:"probeCount"`
	VectorPostCount int64 `json:"vectorPostCount"`
	TopicCount      int   `json:"topicCount"`
	N               int   `json:"n"`
	M               int   `json:"m"`
}
