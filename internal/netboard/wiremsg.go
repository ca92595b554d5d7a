package netboard

import "tellme/internal/wire"

// Binary wire-tag space of the netboard protocol (0x01–0x1f; 0x20–0x25
// are reserved: the retired binary codec of the serving front used
// them). A tag identifies the message type inside a binary
// frame so a decoder pointed at the wrong struct fails loudly instead
// of misparsing; tags are wire contract — never renumber, only append.
const (
	_ byte = 0x01 + iota // reserved: the single-probe post of the retired /v1/probe
	_                    // reserved: the single-probe reply of the retired GET /v1/probe
	tagProbedObjectsReply
	tagVectorPost
	tagPostingList
	_ // reserved: the standalone vote-list reply of the retired /v1/votes
	tagValuesPost
	tagValuePostingList
	_ // reserved: the standalone value-vote-list reply of the retired /v1/value-votes
	tagDropPost
	tagBatchProbesPost
	tagBatchLookupsReply
	tagTopicSnapshotReply
	_ // reserved: the topic-name list of the retired GET /v1/topics
	tagClearProbesPost
	tagQuiesceReply
	_ // reserved: the conditional drop of the retired /v1/admin/drop-topic-if
	tagStatsReply
	tagPostBatch
	tagPostingsRead
	tagValuePostingsRead
	tagSnapshotRead
	tagLookupsRead
	tagBatchReply
)

// Every message reads its fields back in AppendBinary order; the
// Reader's sticky error plus the codec's Close check make the decoders
// straight-line. Slices follow the wire package's nil-preserving
// count+1 convention so a binary round trip is as faithful as the JSON
// one (the differential fuzz oracle depends on it).

func (*probedObjectsReply) WireTag() byte { return tagProbedObjectsReply }

func (p *probedObjectsReply) AppendBinary(dst []byte) []byte {
	if p.Objects == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(p.Objects))+1)
	for _, og := range p.Objects {
		dst = wire.AppendUint(dst, uint64(og.Object))
		dst = append(dst, og.Grade)
	}
	return dst
}

func (p *probedObjectsReply) DecodeBinary(r *wire.Reader) {
	p.Objects = nil
	n := r.Uint()
	if n == 0 {
		return
	}
	p.Objects = make([]objGrade, 0, sliceCap(n-1, 2))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		p.Objects = append(p.Objects, objGrade{Object: r.Int(), Grade: r.Byte()})
	}
}

func (*vectorPost) WireTag() byte { return tagVectorPost }

func (v *vectorPost) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, v.Topic)
	dst = wire.AppendUint(dst, uint64(v.Player))
	return wire.AppendPartial(dst, v.Bits.P)
}

func (v *vectorPost) DecodeBinary(r *wire.Reader) {
	v.Topic = r.String()
	v.Player = r.Int()
	v.Bits.P = r.Partial()
}

func (*postingList) WireTag() byte { return tagPostingList }

func (l *postingList) AppendBinary(dst []byte) []byte {
	if *l == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(*l))+1)
	for _, p := range *l {
		dst = wire.AppendUint(dst, uint64(p.Player))
		dst = wire.AppendPartial(dst, p.Bits.P)
	}
	return dst
}

func (l *postingList) DecodeBinary(r *wire.Reader) {
	*l = nil
	n := r.Uint()
	if n == 0 {
		return
	}
	*l = make(postingList, 0, sliceCap(n-1, 3))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		*l = append(*l, postingJSON{Player: r.Int(), Bits: wire.Bits{P: r.Partial()}})
	}
}

// appendVoteList / decodeVoteList encode the Votes field of a topic
// snapshot.
func appendVoteList(dst []byte, l voteList) []byte {
	if l == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(l))+1)
	for _, v := range l {
		dst = wire.AppendPartial(dst, v.Bits.P)
		dst = wire.AppendUint(dst, uint64(v.Count))
		dst = wire.AppendInts(dst, v.Voters)
	}
	return dst
}

func decodeVoteList(r *wire.Reader) voteList {
	n := r.Uint()
	if n == 0 {
		return nil
	}
	l := make(voteList, 0, sliceCap(n-1, 4))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		l = append(l, voteJSON{
			Bits:   wire.Bits{P: r.Partial()},
			Count:  r.Int(),
			Voters: r.Ints(),
		})
	}
	return l
}

func (*valuesPost) WireTag() byte { return tagValuesPost }

func (v *valuesPost) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, v.Topic)
	dst = wire.AppendUint(dst, uint64(v.Player))
	return wire.AppendUint32s(dst, v.Vals)
}

func (v *valuesPost) DecodeBinary(r *wire.Reader) {
	v.Topic = r.String()
	v.Player = r.Int()
	v.Vals = r.Uint32s()
}

func (*valuePostingList) WireTag() byte { return tagValuePostingList }

func (l *valuePostingList) AppendBinary(dst []byte) []byte {
	if *l == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(*l))+1)
	for _, p := range *l {
		dst = wire.AppendUint(dst, uint64(p.Player))
		dst = wire.AppendUint32s(dst, p.Vals)
	}
	return dst
}

func (l *valuePostingList) DecodeBinary(r *wire.Reader) {
	*l = nil
	n := r.Uint()
	if n == 0 {
		return
	}
	*l = make(valuePostingList, 0, sliceCap(n-1, 2))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		*l = append(*l, valuePostingJSON{Player: r.Int(), Vals: r.Uint32s()})
	}
}

// appendValueVoteList / decodeValueVoteList mirror the vote-list pair.
func appendValueVoteList(dst []byte, l valueVoteList) []byte {
	if l == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(l))+1)
	for _, v := range l {
		dst = wire.AppendUint32s(dst, v.Vals)
		dst = wire.AppendUint(dst, uint64(v.Count))
		dst = wire.AppendInts(dst, v.Voters)
	}
	return dst
}

func decodeValueVoteList(r *wire.Reader) valueVoteList {
	n := r.Uint()
	if n == 0 {
		return nil
	}
	l := make(valueVoteList, 0, sliceCap(n-1, 3))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		l = append(l, valueVoteJSON{
			Vals:   r.Uint32s(),
			Count:  r.Int(),
			Voters: r.Ints(),
		})
	}
	return l
}

func (*dropPost) WireTag() byte { return tagDropPost }

func (d *dropPost) AppendBinary(dst []byte) []byte { return wire.AppendString(dst, d.Topic) }

func (d *dropPost) DecodeBinary(r *wire.Reader) { d.Topic = r.String() }

func (*batchProbesPost) WireTag() byte { return tagBatchProbesPost }

func (b *batchProbesPost) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUint(dst, uint64(b.Player))
	dst = wire.AppendInts(dst, b.Objects)
	return wire.AppendString(dst, b.Grades)
}

func (b *batchProbesPost) DecodeBinary(r *wire.Reader) {
	b.Player = r.Int()
	b.Objects = r.Ints()
	b.Grades = r.String()
}

func (*batchLookupsReply) WireTag() byte { return tagBatchLookupsReply }

func (b *batchLookupsReply) AppendBinary(dst []byte) []byte {
	return wire.AppendString(dst, b.Grades)
}

func (b *batchLookupsReply) DecodeBinary(r *wire.Reader) { b.Grades = r.String() }

func (*topicSnapshotReply) WireTag() byte { return tagTopicSnapshotReply }

func (t *topicSnapshotReply) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUint(dst, t.Gen)
	dst = wire.AppendUint(dst, t.Epoch)
	dst = wire.AppendBool(dst, t.Unchanged)
	dst = appendVoteList(dst, t.Votes)
	return appendValueVoteList(dst, t.ValueVotes)
}

func (t *topicSnapshotReply) DecodeBinary(r *wire.Reader) {
	t.Gen = r.Uint()
	t.Epoch = r.Uint()
	t.Unchanged = r.Bool()
	t.Votes = decodeVoteList(r)
	t.ValueVotes = decodeValueVoteList(r)
}

func (*clearProbesPost) WireTag() byte { return tagClearProbesPost }

func (c *clearProbesPost) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUint(dst, uint64(c.Player))
	return wire.AppendInts(dst, c.Objects)
}

func (c *clearProbesPost) DecodeBinary(r *wire.Reader) {
	c.Player = r.Int()
	c.Objects = r.Ints()
}

func (*quiesceReply) WireTag() byte { return tagQuiesceReply }

func (q *quiesceReply) AppendBinary(dst []byte) []byte { return wire.AppendBool(dst, q.Idle) }

func (q *quiesceReply) DecodeBinary(r *wire.Reader) { q.Idle = r.Bool() }

func (*statsReply) WireTag() byte { return tagStatsReply }

func (s *statsReply) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUint(dst, uint64(s.ProbeCount))
	dst = wire.AppendUint(dst, uint64(s.VectorPostCount))
	dst = wire.AppendUint(dst, uint64(s.TopicCount))
	dst = wire.AppendUint(dst, uint64(s.N))
	return wire.AppendUint(dst, uint64(s.M))
}

func (s *statsReply) DecodeBinary(r *wire.Reader) {
	s.ProbeCount = int64(r.Uint())
	s.VectorPostCount = int64(r.Uint())
	s.TopicCount = r.Int()
	s.N = r.Int()
	s.M = r.Int()
}

func (*postBatch) WireTag() byte { return tagPostBatch }

// AppendBinary writes each post as its entry message's tag and
// payload, then each read as its kind's tag and payload; an entry with
// no field set travels as tag 0, which the server rejects.
func (b *postBatch) AppendBinary(dst []byte) []byte {
	dst = appendEntries(dst, b.Posts, func(dst []byte, p batchPost) []byte {
		var m wire.Message
		switch {
		case p.Probes != nil:
			m = p.Probes
		case p.Values != nil:
			m = p.Values
		case p.Vector != nil:
			m = p.Vector
		case p.Drop != nil:
			m = p.Drop
		default:
			return append(dst, 0)
		}
		return m.AppendBinary(append(dst, m.WireTag()))
	})
	return appendEntries(dst, b.Reads, func(dst []byte, rd batchRead) []byte {
		switch {
		case rd.Postings != nil:
			return wire.AppendString(append(dst, tagPostingsRead), rd.Postings.Topic)
		case rd.ValuePostings != nil:
			return wire.AppendString(append(dst, tagValuePostingsRead), rd.ValuePostings.Topic)
		case rd.Snapshot != nil:
			dst = wire.AppendString(append(dst, tagSnapshotRead), rd.Snapshot.Topic)
			dst = wire.AppendUint(dst, rd.Snapshot.Gen)
			return wire.AppendUint(dst, rd.Snapshot.Epoch)
		case rd.Lookups != nil:
			dst = wire.AppendUint(append(dst, tagLookupsRead), uint64(rd.Lookups.Player))
			return wire.AppendInts(dst, rd.Lookups.Objects)
		default:
			return append(dst, 0)
		}
	})
}

func (b *postBatch) DecodeBinary(r *wire.Reader) {
	b.Posts = decodeEntries(r, func(r *wire.Reader) (p batchPost) {
		switch tag := r.Byte(); tag {
		case 0:
		case tagBatchProbesPost:
			p.Probes = new(batchProbesPost)
			p.Probes.DecodeBinary(r)
		case tagValuesPost:
			p.Values = new(valuesPost)
			p.Values.DecodeBinary(r)
		case tagVectorPost:
			p.Vector = new(vectorPost)
			p.Vector.DecodeBinary(r)
		case tagDropPost:
			p.Drop = new(dropPost)
			p.Drop.DecodeBinary(r)
		default:
			r.Fail("bad post tag 0x%02x", tag)
		}
		return p
	})
	b.Reads = decodeEntries(r, func(r *wire.Reader) (rd batchRead) {
		switch tag := r.Byte(); tag {
		case 0:
		case tagPostingsRead:
			rd.Postings = &topicRead{Topic: r.String()}
		case tagValuePostingsRead:
			rd.ValuePostings = &topicRead{Topic: r.String()}
		case tagSnapshotRead:
			rd.Snapshot = &snapshotRead{Topic: r.String(), Gen: r.Uint(), Epoch: r.Uint()}
		case tagLookupsRead:
			rd.Lookups = &lookupsRead{Player: r.Int(), Objects: r.Ints()}
		default:
			r.Fail("bad read tag 0x%02x", tag)
		}
		return rd
	})
}

func (*batchReply) WireTag() byte { return tagBatchReply }

// AppendBinary writes each result as its answer message's tag and
// payload; a result with no field set travels as tag 0.
func (b *batchReply) AppendBinary(dst []byte) []byte {
	return appendEntries(dst, b.Results, func(dst []byte, res readResult) []byte {
		var m wire.Message
		switch {
		case res.Postings != nil:
			m = res.Postings
		case res.ValuePostings != nil:
			m = res.ValuePostings
		case res.Snapshot != nil:
			m = res.Snapshot
		case res.Lookups != nil:
			m = res.Lookups
		default:
			return append(dst, 0)
		}
		return m.AppendBinary(append(dst, m.WireTag()))
	})
}

func (b *batchReply) DecodeBinary(r *wire.Reader) {
	b.Results = decodeEntries(r, func(r *wire.Reader) (res readResult) {
		switch tag := r.Byte(); tag {
		case 0:
		case tagPostingList:
			res.Postings = new(postingList)
			res.Postings.DecodeBinary(r)
		case tagValuePostingList:
			res.ValuePostings = new(valuePostingList)
			res.ValuePostings.DecodeBinary(r)
		case tagTopicSnapshotReply:
			res.Snapshot = new(topicSnapshotReply)
			res.Snapshot.DecodeBinary(r)
		case tagBatchLookupsReply:
			res.Lookups = new(batchLookupsReply)
			res.Lookups.DecodeBinary(r)
		default:
			r.Fail("bad result tag 0x%02x", tag)
		}
		return res
	})
}

// appendEntries writes a list of batch entries under the nil-preserving
// count+1 convention, each through entry.
func appendEntries[E any](dst []byte, list []E, entry func([]byte, E) []byte) []byte {
	if list == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(list))+1)
	for _, e := range list {
		dst = entry(dst, e)
	}
	return dst
}

// decodeEntries reads back a list appendEntries wrote, each entry
// through entry; an entry is at least its one tag byte.
func decodeEntries[E any](r *wire.Reader, entry func(*wire.Reader) E) []E {
	n := r.Uint()
	if n == 0 {
		return nil
	}
	list := make([]E, 0, sliceCap(n-1, 1))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		list = append(list, entry(r))
	}
	return list
}

// sliceCap bounds a pre-allocation by what the payload could possibly
// hold (count elements of at least minBytes each): a hostile count in a
// short frame reserves nothing it cannot back with real bytes — the
// loop then fails on the first truncated element.
func sliceCap(count uint64, minBytes int) int {
	const preallocLimit = 1 << 16
	if count > preallocLimit/uint64(minBytes) {
		return preallocLimit / minBytes
	}
	return int(count)
}
