package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tellme/internal/telemetry"
)

// Media types of the two codecs. The binary media type carries an
// explicit format version parameter; a server that sees a version it
// does not implement answers 415 rather than guessing (see DESIGN.md
// §15 for the v=N rules).
const (
	MediaJSON         = "application/json"
	MediaBinary       = "application/x-tellme-bin"
	ContentTypeBinary = MediaBinary + ";v=1"
)

// BodyKind classifies a request Content-Type.
type BodyKind int

const (
	// KindJSON: anything that is not the binary media type — servers
	// always accept JSON, and curl posting text/plain or nothing keeps
	// working exactly as before the codec existed.
	KindJSON BodyKind = iota
	// KindBinary: the binary media type at a version we speak.
	KindBinary
	// KindUnsupported: the binary media type at a version we do not
	// speak — the 415 case.
	KindUnsupported
)

// ClassifyContentType maps a Content-Type header to a BodyKind.
func ClassifyContentType(ct string) BodyKind {
	media, params := splitMedia(ct)
	if !strings.EqualFold(media, MediaBinary) {
		return KindJSON
	}
	if binaryParamOK(params) {
		return KindBinary
	}
	return KindUnsupported
}

// AcceptsBinary reports whether an Accept header asks for the binary
// media type at a version we speak. Absent or JSON-only Accept headers
// return false — the reply defaults to JSON.
func AcceptsBinary(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		media, params := splitMedia(part)
		if strings.EqualFold(media, MediaBinary) && binaryParamOK(params) {
			return true
		}
	}
	return false
}

// splitMedia separates "type/sub; k=v; ..." into the media type and its
// raw parameter list, trimming whitespace.
func splitMedia(header string) (media, params string) {
	media = header
	if i := strings.IndexByte(header, ';'); i >= 0 {
		media, params = header[:i], header[i+1:]
	}
	return strings.TrimSpace(media), params
}

// binaryParamOK reports whether the parameter list names binary version
// 1 (a bare media type without v counts as v=1 for Accept convenience).
func binaryParamOK(params string) bool {
	if strings.TrimSpace(params) == "" {
		return true
	}
	for _, p := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if ok && strings.EqualFold(strings.TrimSpace(k), "v") {
			return strings.TrimSpace(v) == "1"
		}
	}
	return true
}

// Instruments is the per-endpoint wire telemetry: body sizes in and out
// plus encode/decode latency. The zero value (all nil) is a no-op, so
// servers without a registry thread it unconditionally.
type Instruments struct {
	BytesIn  *telemetry.Counter
	BytesOut *telemetry.Counter
	EncodeNs *telemetry.Histogram
	DecodeNs *telemetry.Histogram
}

// NewInstruments resolves the wire instruments for one endpoint:
// "<prefix>.bytes.{in,out}.<path>" counters and
// "<prefix>.{encode,decode}_ns.<path>" histograms, following the
// established "<prefix>.<metric>.<path>" registry convention. Returns
// the zero (no-op) Instruments on a nil registry.
func NewInstruments(reg *telemetry.Registry, prefix, path string) Instruments {
	if reg == nil {
		return Instruments{}
	}
	return Instruments{
		BytesIn:  reg.Counter(prefix + ".bytes.in." + path),
		BytesOut: reg.Counter(prefix + ".bytes.out." + path),
		EncodeNs: reg.Histogram(prefix+".encode_ns."+path, telemetry.MicroLatencyBuckets()),
		DecodeNs: reg.Histogram(prefix+".decode_ns."+path, telemetry.MicroLatencyBuckets()),
	}
}

// MaxBodyBytes caps a request body: DecodeRequest and DecodeJSON read
// at most this many bytes and answer 413 beyond it, so no client can
// make a server buffer an unbounded body. The largest bodies an
// in-repo client sends are a deferred board view's post batches, which
// it splits to keep each under half of the cap.
const MaxBodyBytes = 8 << 20

var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)

// DecodeRequest reads and decodes a request body per its Content-Type:
// binary bodies use the binary codec, everything else decodes as JSON
// through DecodeJSON. On failure it returns the HTTP status to answer
// (415, 413 or 400) and the error to include; on success status is 0.
func DecodeRequest(r *http.Request, v Message, ins Instruments) (status int, err error) {
	switch ClassifyContentType(r.Header.Get("Content-Type")) {
	case KindBinary:
		return decodeBody(r, ins, func(data []byte) error { return Binary.Decode(data, v) })
	case KindUnsupported:
		return http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported %s version (server speaks %s)", MediaBinary, ContentTypeBinary)
	}
	return DecodeJSON(r, v, ins)
}

// DecodeJSON reads a request body of at most MaxBodyBytes and decodes
// it as JSON into v, whatever its Content-Type, counting the body's
// bytes and decode time on ins. It returns DecodeRequest's statuses
// (413 or 400) on failure and 0 on success.
func DecodeJSON(r *http.Request, v any, ins Instruments) (status int, err error) {
	return decodeBody(r, ins, func(data []byte) error { return json.Unmarshal(data, v) })
}

// decodeBody reads r's body under the MaxBodyBytes cap into a pooled
// buffer and hands it to decode.
func decodeBody(r *http.Request, ins Instruments, decode func([]byte) error) (status int, err error) {
	if r.ContentLength > MaxBodyBytes {
		return http.StatusRequestEntityTooLarge, errBodyTooLarge
	}
	buf := GetBuffer()
	defer PutBuffer(buf)
	data, err := ReadAll(*buf, io.LimitReader(r.Body, MaxBodyBytes+1))
	*buf = data[:0]
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("read body: %v", err)
	}
	if len(data) > MaxBodyBytes {
		return http.StatusRequestEntityTooLarge, errBodyTooLarge
	}
	ins.BytesIn.Add(int64(len(data)))
	start := time.Now()
	err = decode(data)
	ins.DecodeNs.ObserveSince(start)
	if err != nil {
		return http.StatusBadRequest, err
	}
	return 0, nil
}

// WriteReply encodes v per the request's Accept header — binary when
// the client asked for it, JSON otherwise — through WriteReplyAs.
func WriteReply(w http.ResponseWriter, r *http.Request, v Message, ins Instruments) {
	codec := JSON
	if AcceptsBinary(r.Header.Get("Accept")) {
		codec = Binary
	}
	WriteReplyAs(w, codec, v, ins)
}

// WriteReplyAs encodes v with codec, stamps the codec's Content-Type,
// and writes the body with the implicit 200.
func WriteReplyAs(w http.ResponseWriter, codec Codec, v Message, ins Instruments) {
	writeBody(w, 0, codec.ContentType(), ins, func(dst []byte) ([]byte, error) { return codec.Append(dst, v) })
}

// WriteJSON writes v as a JSON reply with the given HTTP status (0
// means the implicit 200): the JSON codec's bytes, json.Marshal's
// output and a newline, counted on ins.
func WriteJSON(w http.ResponseWriter, status int, v any, ins Instruments) {
	writeBody(w, status, MediaJSON, ins, func(dst []byte) ([]byte, error) { return appendJSON(dst, v) })
}

// writeBody encodes a reply into a pooled buffer with encode and
// writes it under contentType.
func writeBody(w http.ResponseWriter, status int, contentType string, ins Instruments, encode func([]byte) ([]byte, error)) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	start := time.Now()
	data, err := encode(*buf)
	ins.EncodeNs.ObserveSince(start)
	*buf = data[:0]
	if err != nil {
		http.Error(w, fmt.Sprintf("encode reply: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	if status != 0 {
		w.WriteHeader(status)
	}
	if _, err := w.Write(data); err != nil {
		// Connection-level failure; nothing further to do.
		return
	}
	ins.BytesOut.Add(int64(len(data)))
}
