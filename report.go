package tellme

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tellme/internal/bitvec"
)

// reportJSON is the serialized shape of a Report (outputs as
// '0'/'1'/'?' strings).
type reportJSON struct {
	Algorithm   string            `json:"algorithm"`
	Outputs     []string          `json:"outputs"`
	MaxProbes   int64             `json:"maxProbes"`
	TotalProbes int64             `json:"totalProbes"`
	MeanProbes  float64           `json:"meanProbes"`
	DurationNS  int64             `json:"durationNs"`
	Communities []CommunityReport `json:"communities,omitempty"`
	SubRuns     map[string]int64  `json:"subAlgorithmRuns,omitempty"`
}

// SaveReport writes a run report as JSON, suitable for archiving next
// to the instance that produced it (SaveInstance).
func SaveReport(w io.Writer, rep *Report) error {
	if rep == nil {
		return fmt.Errorf("tellme: nil report")
	}
	doc := reportJSON{
		Algorithm:   rep.Algorithm.String(),
		Outputs:     make([]string, len(rep.Outputs)),
		MaxProbes:   rep.MaxProbes,
		TotalProbes: rep.TotalProbes,
		MeanProbes:  rep.MeanProbes,
		DurationNS:  rep.Duration.Nanoseconds(),
		Communities: rep.Communities,
		SubRuns:     rep.SubAlgorithmRuns,
	}
	for p, o := range rep.Outputs {
		doc.Outputs[p] = o.String()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// LoadReport reads a report written by SaveReport. The Algorithm field
// round-trips as its display name only; outputs and all quantitative
// fields round-trip exactly.
func LoadReport(r io.Reader) (*Report, error) {
	var doc reportJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("tellme: %w", err)
	}
	rep := &Report{
		MaxProbes:        doc.MaxProbes,
		TotalProbes:      doc.TotalProbes,
		MeanProbes:       doc.MeanProbes,
		Duration:         time.Duration(doc.DurationNS),
		Communities:      doc.Communities,
		SubAlgorithmRuns: doc.SubRuns,
	}
	rep.Outputs = make([]Partial, len(doc.Outputs))
	for p, s := range doc.Outputs {
		v, err := bitvec.PartialFromString(s)
		if err != nil {
			return nil, fmt.Errorf("tellme: output %d: %w", p, err)
		}
		rep.Outputs[p] = v
	}
	return rep, nil
}
