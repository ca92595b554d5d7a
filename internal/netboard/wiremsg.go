package netboard

import "tellme/internal/wire"

// Binary wire-tag space of the netboard protocol (0x01–0x1f; the serve
// front uses 0x20+). A tag identifies the message type inside a binary
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
	tagTopicsReply
	tagClearProbesPost
	tagQuiesceReply
	tagDropIfPost
	tagStatsReply
	tagPostBatch
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

func (*topicsReply) WireTag() byte { return tagTopicsReply }

func (t *topicsReply) AppendBinary(dst []byte) []byte {
	if t.Topics == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(t.Topics))+1)
	for _, name := range t.Topics {
		dst = wire.AppendString(dst, name)
	}
	return dst
}

func (t *topicsReply) DecodeBinary(r *wire.Reader) {
	t.Topics = nil
	n := r.Uint()
	if n == 0 {
		return
	}
	t.Topics = make([]string, 0, sliceCap(n-1, 1))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		t.Topics = append(t.Topics, r.String())
	}
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

func (*dropIfPost) WireTag() byte { return tagDropIfPost }

func (d *dropIfPost) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, d.Topic)
	dst = wire.AppendUint(dst, uint64(d.Vectors))
	return wire.AppendUint(dst, uint64(d.Values))
}

func (d *dropIfPost) DecodeBinary(r *wire.Reader) {
	d.Topic = r.String()
	d.Vectors = r.Int()
	d.Values = r.Int()
}

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
// payload; a post with no field set travels as tag 0, which the server
// rejects.
func (b *postBatch) AppendBinary(dst []byte) []byte {
	if b.Posts == nil {
		return wire.AppendUint(dst, 0)
	}
	dst = wire.AppendUint(dst, uint64(len(b.Posts))+1)
	for _, p := range b.Posts {
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
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, m.WireTag())
		dst = m.AppendBinary(dst)
	}
	return dst
}

func (b *postBatch) DecodeBinary(r *wire.Reader) {
	b.Posts = nil
	n := r.Uint()
	if n == 0 {
		return
	}
	b.Posts = make([]batchPost, 0, sliceCap(n-1, 1))
	for i := uint64(0); i < n-1 && r.Err() == nil; i++ {
		var p batchPost
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
		b.Posts = append(b.Posts, p)
	}
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
