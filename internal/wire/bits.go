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

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
