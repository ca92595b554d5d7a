package netboard

// Codec seam tests: the differential fuzz that holds the binary codec
// to the JSON codec's round-trip semantics, and the binary decoder's
// normalization fuzz.

import (
	"reflect"
	"testing"

	"tellme/internal/bitvec"
	"tellme/internal/wire"
)

// byteGen derives message contents deterministically from fuzz input.
type byteGen struct {
	data []byte
	i    int
}

func (g *byteGen) byte() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

func (g *byteGen) intn(n int) int { return int(g.byte()) % n }

// text returns a valid-UTF-8 string: json.Marshal rewrites invalid
// UTF-8 to U+FFFD, which would make the two round trips differ for
// reasons that have nothing to do with the codecs.
func (g *byteGen) text(maxLen int) string {
	n := g.intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = ' ' + g.byte()%95 // printable ASCII
	}
	return string(b)
}

// bits returns a '0'/'1'/'?' string of the given width.
func (g *byteGen) bits(width int) string {
	b := make([]byte, width)
	for i := range b {
		b[i] = "01?"[g.intn(3)]
	}
	return string(b)
}

func (g *byteGen) partial(width int) bitvec.Partial {
	p, err := bitvec.PartialFromString(g.bits(width))
	if err != nil {
		panic(err)
	}
	return p
}

// width picks a plane width, biased toward the boundary cases the
// packed layout must get right: empty, single-word, word-aligned, and
// one-past-aligned.
func (g *byteGen) width() int {
	return []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 300}[g.intn(10)]
}

// voters returns a voter list, rotating through nil / empty / short.
func (g *byteGen) voters() []int {
	switch g.intn(3) {
	case 0:
		return nil
	case 1:
		return []int{}
	default:
		out := make([]int, g.intn(4)+1)
		for i := range out {
			out[i] = g.intn(1 << 16)
		}
		return out
	}
}

func (g *byteGen) vals() []uint32 {
	switch g.intn(3) {
	case 0:
		return nil
	case 1:
		return []uint32{}
	default:
		out := make([]uint32, g.intn(4)+1)
		for i := range out {
			out[i] = uint32(g.byte()) << uint32(g.intn(24))
		}
		return out
	}
}

func (g *byteGen) votes(n int) voteList {
	if n == 0 {
		return nil
	}
	l := make(voteList, n)
	for i := range l {
		l[i] = voteJSON{Bits: wire.Bits{P: g.partial(g.width())}, Count: g.intn(1 << 10), Voters: g.voters()}
	}
	return l
}

func (g *byteGen) valueVotes(n int) valueVoteList {
	if n == 0 {
		return nil
	}
	l := make(valueVoteList, n)
	for i := range l {
		l[i] = valueVoteJSON{Vals: g.vals(), Count: g.intn(1 << 10), Voters: g.voters()}
	}
	return l
}

// postBatch returns a batch of n posts of generated kinds, or a nil
// list for n == 0 half of the time, and a nil or populated list of
// reads (Reads is omitempty, so JSON cannot carry an empty one).
func (g *byteGen) postBatch(n int) *postBatch {
	b := &postBatch{Reads: g.reads(g.intn(4))}
	if n == 0 && g.intn(2) == 0 {
		return b
	}
	b.Posts = make([]batchPost, n)
	for i := range b.Posts {
		switch g.intn(4) {
		case 0:
			b.Posts[i].Probes = &batchProbesPost{Player: g.intn(1 << 12), Objects: g.voters(), Grades: g.bits(g.intn(8))}
		case 1:
			b.Posts[i].Values = &valuesPost{Topic: g.text(12), Player: g.intn(1 << 12), Vals: g.vals()}
		case 2:
			b.Posts[i].Vector = &vectorPost{Topic: g.text(12), Player: g.intn(1 << 12), Bits: wire.Bits{P: g.partial(g.width())}}
		default:
			b.Posts[i].Drop = &dropPost{Topic: g.text(12)}
		}
	}
	return b
}

// reads returns n reads of generated kinds, nil for n == 0.
func (g *byteGen) reads(n int) []batchRead {
	if n == 0 {
		return nil
	}
	l := make([]batchRead, n)
	for i := range l {
		switch g.intn(4) {
		case 0:
			l[i].Postings = &topicRead{Topic: g.text(12)}
		case 1:
			l[i].ValuePostings = &topicRead{Topic: g.text(12)}
		case 2:
			l[i].Snapshot = &snapshotRead{Topic: g.text(12), Gen: uint64(g.byte()), Epoch: uint64(g.byte())}
		default:
			l[i].Lookups = &lookupsRead{Player: g.intn(1 << 12), Objects: g.voters()}
		}
	}
	return l
}

// batchReply returns a reply of n results of generated kinds. Its
// posting lists are non-nil, as the server sends them: a nil one
// travels as JSON null, which decodes as no answer at all.
func (g *byteGen) batchReply(n int) *batchReply {
	b := &batchReply{Results: make([]readResult, n)}
	for i := range b.Results {
		switch g.intn(4) {
		case 0:
			l := postingList{}
			for range g.intn(3) {
				l = append(l, postingJSON{Player: g.intn(100), Bits: wire.Bits{P: g.partial(g.width())}})
			}
			b.Results[i].Postings = &l
		case 1:
			l := valuePostingList{}
			for range g.intn(3) {
				l = append(l, valuePostingJSON{Player: g.intn(100), Vals: g.vals()})
			}
			b.Results[i].ValuePostings = &l
		case 2:
			b.Results[i].Snapshot = &topicSnapshotReply{Gen: uint64(g.byte()), Epoch: uint64(g.byte()), Unchanged: g.intn(2) == 1,
				Votes: g.votes(g.intn(3)), ValueVotes: g.valueVotes(g.intn(3))}
		default:
			b.Results[i].Lookups = &batchLookupsReply{Grades: g.bits(g.intn(8))}
		}
	}
	return b
}

// probedObjects returns a probed-objects list, rotating through nil /
// empty / short.
func (g *byteGen) probedObjects() []objGrade {
	switch g.intn(3) {
	case 0:
		return nil
	case 1:
		return []objGrade{}
	default:
		out := make([]objGrade, g.intn(4)+1)
		for i := range out {
			out[i] = objGrade{Object: g.intn(1 << 12), Grade: g.byte() % 2}
		}
		return out
	}
}

// roundTrip encodes msg with the codec and decodes it into fresh.
func roundTrip(t *testing.T, c wire.Codec, msg, fresh wire.Message) wire.Message {
	t.Helper()
	data, err := c.Append(nil, msg)
	if err != nil {
		t.Fatalf("%s encode %T: %v", c.Name(), msg, err)
	}
	if err := c.Decode(data, fresh); err != nil {
		t.Fatalf("%s decode %T: %v (frame % x)", c.Name(), msg, err, data)
	}
	return fresh
}

// FuzzCodecRoundTrip is the differential oracle: for generated messages
// of every protocol type, the binary round trip must produce exactly
// what the JSON round trip produces — same values, same nil-vs-empty
// slices. Omitempty fields (topic snapshot tallies) are generated
// nil-or-populated, never empty-non-nil, because JSON cannot represent
// that distinction; everywhere else empties are fair game.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})                                // all-zero generator: empty batches, zero widths
	f.Add([]byte{3, 64, 1, 2, 3, 4, 5})            // word-aligned planes
	f.Add([]byte{9, 65, 0, 255, 128, 64, 32, 7})   // one past aligned
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}) // max-D-ish: everything known
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 2, 1, 0, 3}) // reads and results of every kind
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &byteGen{data: data}
		msgs := []struct {
			msg   wire.Message
			fresh func() wire.Message
		}{
			{&probedObjectsReply{Objects: g.probedObjects()},
				func() wire.Message { return &probedObjectsReply{} }},
			{&vectorPost{Topic: g.text(12), Player: g.intn(1 << 12), Bits: wire.Bits{P: g.partial(g.width())}},
				func() wire.Message { return &vectorPost{} }},
			{&valuesPost{Topic: g.text(12), Player: g.intn(1 << 12), Vals: g.vals()},
				func() wire.Message { return &valuesPost{} }},
			{&batchProbesPost{Player: g.intn(1 << 12), Objects: g.voters(), Grades: g.bits(g.intn(8))},
				func() wire.Message { return &batchProbesPost{} }},
			{&batchLookupsReply{Grades: g.bits(g.intn(8))},
				func() wire.Message { return &batchLookupsReply{} }},
			{&postingList{{Player: g.intn(100), Bits: wire.Bits{P: g.partial(g.width())}}},
				func() wire.Message { return &postingList{} }},
			{&valuePostingList{{Player: g.intn(100), Vals: g.vals()}},
				func() wire.Message { return &valuePostingList{} }},
			{&dropPost{Topic: g.text(12)},
				func() wire.Message { return &dropPost{} }},
			{&quiesceReply{Idle: g.intn(2) == 1},
				func() wire.Message { return &quiesceReply{} }},
			{&topicSnapshotReply{Gen: uint64(g.byte()), Epoch: uint64(g.byte()), Unchanged: g.intn(2) == 1,
				Votes: g.votes(g.intn(4)), ValueVotes: g.valueVotes(g.intn(4))},
				func() wire.Message { return &topicSnapshotReply{} }},
			{&clearProbesPost{Player: g.intn(1 << 12), Objects: g.voters()},
				func() wire.Message { return &clearProbesPost{} }},
			{&statsReply{ProbeCount: int64(g.byte()), VectorPostCount: int64(g.byte()), TopicCount: g.intn(100), N: g.intn(1 << 12), M: g.intn(1 << 12)},
				func() wire.Message { return &statsReply{} }},
			{g.postBatch(g.intn(5)),
				func() wire.Message { return &postBatch{} }},
			{g.batchReply(g.intn(5)),
				func() wire.Message { return &batchReply{} }},
		}
		for _, m := range msgs {
			viaJSON := roundTrip(t, wire.JSON, m.msg, m.fresh())
			viaBinary := roundTrip(t, wire.Binary, m.msg, m.fresh())
			if !reflect.DeepEqual(viaJSON, viaBinary) {
				t.Fatalf("%T diverges:\n json   round trip: %#v\n binary round trip: %#v", m.msg, viaJSON, viaBinary)
			}
		}
	})
}

// FuzzBinaryDecode throws arbitrary bytes at the binary decoder of
// every message type: it may reject, it must never panic or hang, and
// anything it accepts must normalize in one step — re-encoding the
// decoded message and decoding that again must reach a fixed point
// (the decoder tolerates non-minimal uvarints, nonzero bools and dirty
// plane tails, but what it produces from them must be canonical).
func FuzzBinaryDecode(f *testing.F) {
	seed, _ := wire.Binary.Append(nil, &topicSnapshotReply{Votes: voteList{{Count: 1}}})
	f.Add(seed)
	seed, _ = wire.Binary.Append(nil, readsBatch())
	f.Add(seed)
	seed, _ = wire.Binary.Append(nil, readsReply())
	f.Add(seed)
	f.Add([]byte{'T', 'B', 1, 0x01})
	f.Add([]byte{'T', 'B', 1, 0x0d, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() wire.Message{
			func() wire.Message { return &probedObjectsReply{} },
			func() wire.Message { return &vectorPost{} },
			func() wire.Message { return &postingList{} },
			func() wire.Message { return &valuesPost{} },
			func() wire.Message { return &valuePostingList{} },
			func() wire.Message { return &dropPost{} },
			func() wire.Message { return &batchProbesPost{} },
			func() wire.Message { return &batchLookupsReply{} },
			func() wire.Message { return &topicSnapshotReply{} },
			func() wire.Message { return &clearProbesPost{} },
			func() wire.Message { return &quiesceReply{} },
			func() wire.Message { return &statsReply{} },
			func() wire.Message { return &postBatch{} },
			func() wire.Message { return &batchReply{} },
		} {
			v := fresh()
			if err := wire.Binary.Decode(data, v); err != nil {
				continue
			}
			re1, err := wire.Binary.Append(nil, v)
			if err != nil {
				t.Fatalf("re-encode of accepted %T failed: %v", v, err)
			}
			w := fresh()
			if err := wire.Binary.Decode(re1, w); err != nil {
				t.Fatalf("%T rejected its own re-encoding: %v\n in:  % x\n out: % x", v, err, data, re1)
			}
			re2, err := wire.Binary.Append(nil, w)
			if err != nil {
				t.Fatalf("second re-encode of %T failed: %v", v, err)
			}
			if !wire.Equal(re1, re2) {
				t.Fatalf("%T does not normalize:\n in:   % x\n enc1: % x\n enc2: % x", v, data, re1, re2)
			}
		}
	})
}

// readsBatch is a post batch with a post and a read of every kind.
func readsBatch() *postBatch {
	vec, _ := bitvec.PartialFromString("01?")
	return &postBatch{
		Posts: []batchPost{
			{Probes: &batchProbesPost{Player: 1, Objects: []int{2, 3}, Grades: "10"}},
			{Vector: &vectorPost{Topic: "t", Player: 1, Bits: wire.Bits{P: vec}}},
		},
		Reads: []batchRead{
			{Postings: &topicRead{Topic: "t"}},
			{ValuePostings: &topicRead{Topic: "v"}},
			{Snapshot: &snapshotRead{Topic: "t", Gen: 3, Epoch: 9}},
			{Lookups: &lookupsRead{Player: 1, Objects: []int{2, 3, 4}}},
		},
	}
}

// readsReply is a reply with a result of every kind.
func readsReply() *batchReply {
	vec, _ := bitvec.PartialFromString("01?")
	return &batchReply{Results: []readResult{
		{Postings: &postingList{{Player: 1, Bits: wire.Bits{P: vec}}}},
		{ValuePostings: &valuePostingList{}},
		{Snapshot: &topicSnapshotReply{Gen: 3, Epoch: 9, Votes: voteList{{Bits: wire.Bits{P: vec}, Count: 1, Voters: []int{1}}}}},
		{Lookups: &batchLookupsReply{Grades: "10?"}},
	}}
}

// TestCodecRoundTripBatchWithReads: a post batch with reads and a reply
// with a result of every kind come back unchanged through either codec.
func TestCodecRoundTripBatchWithReads(t *testing.T) {
	for _, c := range []wire.Codec{wire.JSON, wire.Binary} {
		if got := roundTrip(t, c, readsBatch(), &postBatch{}); !reflect.DeepEqual(got, readsBatch()) {
			t.Errorf("%s: batch came back as %#v", c.Name(), got)
		}
		if got := roundTrip(t, c, readsReply(), &batchReply{}); !reflect.DeepEqual(got, readsReply()) {
			t.Errorf("%s: reply came back as %#v", c.Name(), got)
		}
	}
}
