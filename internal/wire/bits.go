package wire

import (
	"encoding/json"
	"fmt"

	"tellme/internal/bitvec"
)

// Bits is the wire form of a bitvec.Partial. In JSON it is the
// historical '0'/'1'/'?' string (byte-compatible with the pre-codec
// protocol, curl-debuggable); in binary it is the packed value/known
// planes, copied straight from the in-memory layout.
type Bits struct {
	P bitvec.Partial
}

// MarshalJSON renders the '0'/'1'/'?' string form.
func (b Bits) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.P.String())
}

// UnmarshalJSON parses the '0'/'1'/'?' string form.
func (b *Bits) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p, err := bitvec.PartialFromString(s)
	if err != nil {
		return fmt.Errorf("bad vector %q: %v", truncate(s, 32), err)
	}
	b.P = p
	return nil
}

// AppendBitsString binary-encodes a vector string field that the
// endpoint's structs keep as a plain Go string ('0'/'1' preference
// bits, '0'/'1'/'?' reconstructions — the serve front's shape). Valid
// strings travel packed (flag 0 + bit planes, 8x smaller); anything
// else travels raw (flag 1), so an invalid string survives a binary
// round trip exactly as it survives a JSON one and the server's own
// validation stays the single authority on rejecting it.
func AppendBitsString(dst []byte, s string) []byte {
	if p, err := bitvec.PartialFromString(s); err == nil {
		dst = append(dst, 0)
		return AppendPartial(dst, p)
	}
	dst = append(dst, 1)
	return AppendString(dst, s)
}

// BitsString decodes AppendBitsString's encoding back to the string.
func (r *Reader) BitsString() string {
	switch flag := r.Byte(); flag {
	case 0:
		return r.Partial().String()
	case 1:
		return r.String()
	default:
		r.Fail("bad bits-string flag %d", flag)
		return ""
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
