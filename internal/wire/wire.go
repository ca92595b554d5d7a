// Package wire is the pluggable encoding layer of the billboard wire
// protocol: every request/response body that netboard, the cluster
// fan-out and the serving front marshal goes through a Codec instead of
// a hardcoded encoding/json call.
//
// Two codecs exist. JSON is the default and is byte-compatible with the
// historical hand-rolled marshalling (vectors as '0'/'1'/'?' strings,
// json.Encoder framing with a trailing newline), so /debug endpoints
// and curl sessions keep working unchanged. Binary is a length-prefixed
// little-endian format that writes probe batches, lookup answers and
// topic snapshots as packed arrays, reusing the bit-plane layout of
// internal/bitvec so a large tally's planes go to the wire near
// zero-copy (see binary.go for the framing).
//
// Negotiation is per request (DESIGN.md §15): a binary body is labelled
// Content-Type "application/x-tellme-bin;v=1", a client asks for a
// binary reply with the same media type in Accept, and servers accept
// either codec and reply in the one the request asked for. A binary
// version the server does not speak is answered 415. A client uses
// exactly the codec it was configured with; there is no fallback.
//
// Both codecs encode into caller-supplied byte slices; GetBuffer and
// PutBuffer pool sized scratch buffers so the hot request path reuses
// one buffer per request instead of allocating fresh encode/decode
// buffers (see the ReportAllocs benchmarks in netboard).
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Message is a wire body: any request or response struct that travels
// through a Codec. JSON encoding uses the struct's json tags (and
// custom marshalers such as Bits); binary encoding is hand-rolled per
// message via AppendBinary/DecodeBinary, discriminated by WireTag.
type Message interface {
	// WireTag identifies the message type inside the binary frame
	// header; the decoder rejects a frame whose tag does not match the
	// destination struct.
	WireTag() byte
	// AppendBinary appends the message's binary payload (no frame
	// header) to dst and returns the extended slice.
	AppendBinary(dst []byte) []byte
	// DecodeBinary reads the payload back from r. Implementations
	// read fields in AppendBinary order and rely on the Reader's
	// sticky error; the codec checks r.Err and full consumption.
	DecodeBinary(r *Reader)
}

// Codec encodes and decodes wire messages. Implementations are
// stateless and safe for concurrent use.
type Codec interface {
	// Name is the codec's flag/config name ("json", "binary").
	Name() string
	// ContentType is the HTTP media type of bodies this codec writes.
	ContentType() string
	// Append encodes v and appends it to dst, returning the extended
	// slice (dst's capacity is reused; pass a pooled buffer).
	Append(dst []byte, v Message) ([]byte, error)
	// Decode parses one encoded message into v.
	Decode(data []byte, v Message) error
}

// JSON is the historical codec: encoding/json over the message structs,
// framed exactly like json.Encoder (a trailing newline), so responses
// are byte-identical to the pre-codec implementation.
var JSON Codec = jsonCodec{}

// Binary is the length-prefixed packed little-endian codec.
var Binary Codec = binaryCodec{}

// ByName resolves a codec flag/config value. The empty string means
// JSON (the default).
func ByName(name string) (Codec, error) {
	switch name {
	case "", JSON.Name():
		return JSON, nil
	case Binary.Name():
		return Binary, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (want %q or %q)", name, JSON.Name(), Binary.Name())
	}
}

type jsonCodec struct{}

func (jsonCodec) Name() string        { return "json" }
func (jsonCodec) ContentType() string { return MediaJSON }

func (jsonCodec) Append(dst []byte, v Message) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}

func (jsonCodec) Decode(data []byte, v Message) error {
	return json.Unmarshal(data, v)
}

// Binary frame header: magic "TB", a format version byte, and the
// message tag. The version byte is the v=N of the media type: bump it
// (and ContentTypeBinary) together when the framing changes
// incompatibly; see DESIGN.md §15 for the version rules.
const (
	binMagic0     = 'T'
	binMagic1     = 'B'
	binaryVersion = 1
	binHeaderLen  = 4
)

type binaryCodec struct{}

func (binaryCodec) Name() string        { return "binary" }
func (binaryCodec) ContentType() string { return ContentTypeBinary }

func (binaryCodec) Append(dst []byte, v Message) ([]byte, error) {
	dst = append(dst, binMagic0, binMagic1, binaryVersion, v.WireTag())
	return v.AppendBinary(dst), nil
}

func (binaryCodec) Decode(data []byte, v Message) error {
	if len(data) < binHeaderLen || data[0] != binMagic0 || data[1] != binMagic1 {
		return fmt.Errorf("wire: not a binary frame (%d bytes)", len(data))
	}
	if data[2] != binaryVersion {
		return fmt.Errorf("wire: binary frame version %d, want %d", data[2], binaryVersion)
	}
	if data[3] != v.WireTag() {
		return fmt.Errorf("wire: binary frame tag 0x%02x, want 0x%02x", data[3], v.WireTag())
	}
	r := NewReader(data[binHeaderLen:])
	v.DecodeBinary(r)
	return r.Close()
}

// maxPooledBuffer caps the capacity a returned buffer may retain: a
// one-off giant body (a full-topic snapshot of a hot tally) must not
// pin megabytes inside the pool forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuffer returns a pooled scratch buffer (length 0, capacity from
// prior use). Return it with PutBuffer when the encoded/decoded bytes
// are no longer referenced.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a buffer taken with GetBuffer to the pool.
// Oversized buffers are dropped (see maxPooledBuffer); nil is ignored.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ReadAll reads r to EOF into dst (reusing dst's capacity, like
// bytes.Buffer but pool-friendly) and returns the filled slice.
func ReadAll(dst []byte, r io.Reader) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Equal reports whether two encodings of the same message are
// byte-identical — the oracle the differential tests use.
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
