package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tellme/internal/bitvec"
	"tellme/internal/telemetry"
)

// testMsg is a minimal Message for exercising the codecs without
// depending on the netboard/serve message sets.
type testMsg struct {
	A  int      `json:"a"`
	S  string   `json:"s"`
	Xs []uint32 `json:"xs"`
}

func (*testMsg) WireTag() byte { return 0x7f }

func (m *testMsg) AppendBinary(dst []byte) []byte {
	dst = AppendUint(dst, uint64(m.A))
	dst = AppendString(dst, m.S)
	return AppendUint32s(dst, m.Xs)
}

func (m *testMsg) DecodeBinary(r *Reader) {
	m.A = r.Int()
	m.S = r.String()
	m.Xs = r.Uint32s()
}

// TestJSONCodecFraming pins the compatibility contract: the JSON codec
// must produce exactly what the historical json.Encoder produced —
// json.Marshal output plus a trailing newline.
func TestJSONCodecFraming(t *testing.T) {
	msg := &testMsg{A: 7, S: "hi", Xs: []uint32{1, 2}}
	got, err := JSON.Append(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(msg)
	want = append(want, '\n')
	if !Equal(got, want) {
		t.Fatalf("JSON.Append = %q, want json.Marshal+newline %q", got, want)
	}
	var back testMsg
	if err := JSON.Decode(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, msg) {
		t.Fatalf("round trip = %+v, want %+v", back, *msg)
	}
}

// TestBinaryFrame checks the frame header and every way a frame can be
// rejected: short, bad magic, wrong version, wrong tag, trailing bytes.
func TestBinaryFrame(t *testing.T) {
	msg := &testMsg{A: 1, S: "x", Xs: []uint32{}}
	data, err := Binary.Append(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 'T' || data[1] != 'B' || data[2] != binaryVersion || data[3] != msg.WireTag() {
		t.Fatalf("frame header = % x", data[:4])
	}
	var back testMsg
	if err := Binary.Decode(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, msg) {
		t.Fatalf("round trip = %+v, want %+v", back, *msg)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"short", data[:2]},
		{"bad magic", append([]byte("XY"), data[2:]...)},
		{"bad version", append([]byte{'T', 'B', 99}, data[3:]...)},
		{"bad tag", append([]byte{'T', 'B', binaryVersion, 0x01}, data[4:]...)},
		{"trailing bytes", append(append([]byte{}, data...), 0)},
		{"truncated payload", data[:len(data)-1]},
	}
	for _, tc := range cases {
		var v testMsg
		if err := Binary.Decode(tc.data, &v); err == nil {
			t.Errorf("%s: decode accepted", tc.name)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Codec{"": JSON, "json": JSON, "binary": Binary} {
		c, err := ByName(name)
		if err != nil || c != want {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("protobuf"); err == nil {
		t.Error("unknown codec name accepted")
	}
}

func TestClassifyContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want BodyKind
	}{
		{"", KindJSON},
		{"application/json", KindJSON},
		{"application/json; charset=utf-8", KindJSON},
		{"text/plain", KindJSON},
		{"application/x-tellme-bin", KindBinary}, // bare media = v1
		{"application/x-tellme-bin;v=1", KindBinary},
		{"Application/X-Tellme-Bin; V=1", KindBinary},
		{"application/x-tellme-bin; charset=utf-8", KindBinary},
		{"application/x-tellme-bin;v=2", KindUnsupported},
		{"application/x-tellme-bin; v=0", KindUnsupported},
	}
	for _, tc := range cases {
		if got := ClassifyContentType(tc.ct); got != tc.want {
			t.Errorf("ClassifyContentType(%q) = %v, want %v", tc.ct, got, tc.want)
		}
	}
}

func TestAcceptsBinary(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"*/*", false},
		{"application/x-tellme-bin", true},
		{"application/x-tellme-bin;v=1", true},
		{"application/json, application/x-tellme-bin;v=1", true},
		{"application/x-tellme-bin;v=2", false},
	}
	for _, tc := range cases {
		if got := AcceptsBinary(tc.accept); got != tc.want {
			t.Errorf("AcceptsBinary(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestReaderRoundTrip drives every primitive through an encode/decode
// cycle, including the nil-vs-empty distinction the count+1 prefixes
// exist for.
func TestReaderRoundTrip(t *testing.T) {
	v := bitvec.New(67) // deliberately not word-aligned
	v.Set(0, 1)
	v.Set(66, 1)
	p := bitvec.NewPartial(67)
	p.SetBit(3, 1)
	p.SetBit(64, 0)

	var dst []byte
	dst = AppendUint(dst, 0)
	dst = AppendUint(dst, math.MaxUint64)
	dst = AppendBool(dst, true)
	dst = AppendFloat(dst, -3.75)
	dst = AppendString(dst, "topic/θ")
	dst = AppendInts(dst, nil)
	dst = AppendInts(dst, []int{})
	dst = AppendInts(dst, []int{0, 5, math.MaxUint32})
	dst = AppendUint32s(dst, nil)
	dst = AppendUint32s(dst, []uint32{9})
	dst = AppendVector(dst, v)
	dst = AppendPartial(dst, p)

	r := NewReader(dst)
	if got := r.Uint(); got != 0 {
		t.Fatalf("Uint = %d", got)
	}
	if got := r.Uint(); got != math.MaxUint64 {
		t.Fatalf("Uint = %d", got)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if got := r.Float(); got != -3.75 {
		t.Fatalf("Float = %v", got)
	}
	if got := r.String(); got != "topic/θ" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Ints(); got != nil {
		t.Fatalf("nil Ints = %v", got)
	}
	if got := r.Ints(); got == nil || len(got) != 0 {
		t.Fatalf("empty Ints = %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{0, 5, math.MaxUint32}) {
		t.Fatalf("Ints = %v", got)
	}
	if got := r.Uint32s(); got != nil {
		t.Fatalf("nil Uint32s = %v", got)
	}
	if got := r.Uint32s(); !reflect.DeepEqual(got, []uint32{9}) {
		t.Fatalf("Uint32s = %v", got)
	}
	if got := r.Vector(); got.String() != v.String() {
		t.Fatalf("Vector = %s, want %s", got.String(), v.String())
	}
	if got := r.Partial(); got.String() != p.String() {
		t.Fatalf("Partial = %s, want %s", got.String(), p.String())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderHostileInputs checks the bounds and stickiness guarantees:
// truncated fields fail, hostile counts cannot reserve memory, and a
// failed reader keeps returning zero values.
func TestReaderHostileInputs(t *testing.T) {
	t.Run("truncated uvarint", func(t *testing.T) {
		r := NewReader([]byte{0x80})
		if r.Uint() != 0 || r.Err() == nil {
			t.Fatal("truncated uvarint accepted")
		}
	})
	t.Run("string over length", func(t *testing.T) {
		r := NewReader(AppendUint(nil, 100))
		if r.String() != "" || r.Err() == nil {
			t.Fatal("oversized string length accepted")
		}
	})
	t.Run("hostile count", func(t *testing.T) {
		r := NewReader(AppendUint(nil, 1<<40))
		if r.Ints() != nil || r.Err() == nil {
			t.Fatal("hostile count accepted")
		}
	})
	t.Run("truncated planes", func(t *testing.T) {
		r := NewReader(AppendUint(nil, 1000))
		if r.Partial().Len() != 0 || r.Err() == nil {
			t.Fatal("truncated partial accepted")
		}
	})
	t.Run("sticky", func(t *testing.T) {
		r := NewReader([]byte{0x80})
		r.Uint()
		first := r.Err()
		if got := r.String(); got != "" {
			t.Fatalf("read after error = %q", got)
		}
		if r.Err() != first {
			t.Fatal("error not sticky")
		}
	})
	t.Run("trailing", func(t *testing.T) {
		r := NewReader([]byte{1, 2})
		r.Byte()
		if err := r.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("Close = %v, want trailing-bytes error", err)
		}
	})
}

// TestPartialPlaneClamping feeds the Reader a payload whose planes have
// dirty tail bits and a value bit without its known bit; the
// constructed Partial must be clamped back to the invariant.
func TestPartialPlaneClamping(t *testing.T) {
	var dst []byte
	dst = AppendUint(dst, 4)                      // 4-bit partial, one word of planes
	dst = appendWords(dst, []uint64{0xFFFF_FFFF}) // val: bits far past len, and bits known doesn't cover
	dst = appendWords(dst, []uint64{0b0101})      // known: only bits 0 and 2
	r := NewReader(dst)
	p := r.Partial()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "1?1?" {
		t.Fatalf("clamped partial = %q, want \"1?1?\"", got)
	}
	val, known := p.Planes()
	if val[0] != 0b0101 || known[0] != 0b0101 {
		t.Fatalf("planes = %b/%b, want 0101/0101", val[0], known[0])
	}
}

// TestBitsJSON pins the JSON form of wire.Bits to the historical
// '0'/'1'/'?' string.
func TestBitsJSON(t *testing.T) {
	p := bitvec.NewPartial(5)
	p.SetBit(1, 1)
	p.SetBit(3, 0)
	got, err := json.Marshal(Bits{P: p})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `"?1?0?"` {
		t.Fatalf("marshal = %s", got)
	}
	var back Bits
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.P.String() != p.String() {
		t.Fatalf("round trip = %q", back.P.String())
	}
	if err := json.Unmarshal([]byte(`"01x"`), &back); err == nil {
		t.Fatal("invalid vector string accepted")
	}
}

// TestBitsStringDualMode checks both arms of the string-field encoding:
// a parseable vector string travels packed, an arbitrary string travels
// raw, and both come back verbatim.
func TestBitsStringDualMode(t *testing.T) {
	for _, s := range []string{"", "01?10", strings.Repeat("1", 200), "not bits at all", "01x"} {
		data := AppendBitsString(nil, s)
		r := NewReader(data)
		if got := r.BitsString(); got != s || r.Close() != nil {
			t.Fatalf("BitsString(%q) = %q, err %v", s, got, r.Close())
		}
	}
	// Packed arm is actually packed: a long valid string must shrink.
	long := strings.Repeat("10", 512)
	if data := AppendBitsString(nil, long); len(data) >= len(long)/2 {
		t.Fatalf("valid vector string not packed: %d bytes for %d chars", len(data), len(long))
	}
	r := NewReader([]byte{9})
	if r.BitsString(); r.Err() == nil {
		t.Fatal("bad dual-mode flag accepted")
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer has length %d", len(*b))
	}
	*b = append(*b, make([]byte, 100)...)
	PutBuffer(b)
	PutBuffer(nil) // must not panic
	big := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(&big) // oversized: dropped, must not panic
}

func TestReadAll(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 5000)
	got, err := ReadAll(make([]byte, 0, 8), bytes.NewReader(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("ReadAll = %d bytes, err %v", len(got), err)
	}
}

// TestDecodeRequestNegotiation drives the server-side helper through
// the whole negotiation matrix: JSON default, binary body, unsupported
// version (415), malformed body (400).
func TestDecodeRequestNegotiation(t *testing.T) {
	msg := &testMsg{A: 3, S: "s", Xs: []uint32{7}}
	jsonBody, _ := JSON.Append(nil, msg)
	binBody, _ := Binary.Append(nil, msg)

	cases := []struct {
		name       string
		ct         string
		body       []byte
		wantStatus int
	}{
		{"json default", "", jsonBody, 0},
		{"json explicit", MediaJSON, jsonBody, 0},
		{"binary", ContentTypeBinary, binBody, 0},
		{"binary bare", MediaBinary, binBody, 0},
		{"future version", MediaBinary + ";v=9", binBody, http.StatusUnsupportedMediaType},
		{"garbage json", "", []byte("{"), http.StatusBadRequest},
		{"garbage binary", ContentTypeBinary, []byte("nope"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/x", bytes.NewReader(tc.body))
		if tc.ct != "" {
			req.Header.Set("Content-Type", tc.ct)
		}
		var v testMsg
		status, err := DecodeRequest(req, &v, Instruments{})
		if status != tc.wantStatus {
			t.Errorf("%s: status %d (err %v), want %d", tc.name, status, err, tc.wantStatus)
			continue
		}
		if status == 0 && !reflect.DeepEqual(&v, msg) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, v, *msg)
		}
	}
}

// TestWriteReplyNegotiation checks the Accept side: binary only when
// asked for, correct Content-Type, explicit status codes,
// and the instruments counting body bytes.
func TestWriteReplyNegotiation(t *testing.T) {
	msg := &testMsg{A: 11, S: "reply", Xs: nil}
	reg := telemetry.New()
	ins := NewInstruments(reg, "test", "/x")

	cases := []struct {
		name   string
		accept string
		status int
		wantCT string
	}{
		{"default json", "", 0, MediaJSON},
		{"binary", ContentTypeBinary, 0, ContentTypeBinary},
		{"created", ContentTypeBinary, http.StatusCreated, ContentTypeBinary},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", "/x", nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		WriteReplyStatus(rec, req, tc.status, msg, ins)
		wantStatus := tc.status
		if wantStatus == 0 {
			wantStatus = http.StatusOK
		}
		if rec.Code != wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, wantStatus)
		}
		if ct := rec.Header().Get("Content-Type"); ct != tc.wantCT {
			t.Errorf("%s: Content-Type %q, want %q", tc.name, ct, tc.wantCT)
		}
		codec, _ := ByName("json")
		if tc.wantCT == ContentTypeBinary {
			codec = Binary
		}
		var back testMsg
		if err := codec.Decode(rec.Body.Bytes(), &back); err != nil {
			t.Errorf("%s: reply decode: %v", tc.name, err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["test.bytes.out./x"]; got == 0 {
		t.Fatal("BytesOut counter did not move")
	}
	if snap.Histograms["test.encode_ns./x"].Count != int64(len(cases)) {
		t.Fatalf("encode histogram count = %d, want %d", snap.Histograms["test.encode_ns./x"].Count, len(cases))
	}
}
