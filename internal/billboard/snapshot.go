package billboard

// Board state snapshot/restore, so a long-running billboard service
// (cmd/billboard) can survive restarts without losing posted probes and
// vectors. JSON format: greppable and versioned by shape.

import (
	"encoding/json"
	"fmt"
	"io"

	"tellme/internal/bitvec"
)

type snapshotJSON struct {
	N      int                    `json:"n"`
	M      int                    `json:"m"`
	Probes map[int][]snapObjGrade `json:"probes"` // by player, only players with probes
	Topics map[string]snapshot    `json:"topics"`
}

type snapObjGrade struct {
	O int  `json:"o"`
	G byte `json:"g"`
}

type snapshot struct {
	Vectors []snapVec `json:"vectors,omitempty"`
	Values  []snapVal `json:"values,omitempty"`
}

type snapVec struct {
	Player int    `json:"player"`
	Bits   string `json:"bits"`
}

type snapVal struct {
	Player int      `json:"player"`
	Vals   []uint32 `json:"vals"`
}

// Snapshot serializes the board's full state (probe postings and topic
// postings) as JSON. Concurrent posting during a snapshot yields some
// consistent-prefix state; quiesce the board for an exact image.
func (b *Board) Snapshot(w io.Writer) error {
	doc := snapshotJSON{N: b.n, M: b.m, Probes: map[int][]snapObjGrade{}, Topics: map[string]snapshot{}}
	for p := 0; p < b.n; p++ {
		// ForEachProbe iterates in ascending object order and
		// encoding/json sorts map keys, so snapshots of the same state
		// are byte-identical.
		var row []snapObjGrade
		b.ForEachProbe(p, func(o int, g byte) { row = append(row, snapObjGrade{O: o, G: g}) })
		if row != nil {
			doc.Probes[p] = row
		}
	}
	b.mu.RLock()
	names := make([]string, 0, len(b.topics))
	for name := range b.topics {
		names = append(names, name)
	}
	b.mu.RUnlock()
	for _, name := range names {
		var t snapshot
		for _, po := range b.Postings(name) {
			t.Vectors = append(t.Vectors, snapVec{Player: po.Player, Bits: po.Vec.String()})
		}
		for _, po := range b.ValuePostings(name) {
			t.Values = append(t.Values, snapVal{Player: po.Player, Vals: po.Vals})
		}
		doc.Topics[name] = t
	}
	return json.NewEncoder(w).Encode(doc)
}

// Restore builds a Board from a Snapshot. Only the players whose probes
// it replays get probe rows.
func Restore(r io.Reader) (*Board, error) {
	var doc snapshotJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("billboard: snapshot: %w", err)
	}
	if doc.N <= 0 || doc.M <= 0 {
		return nil, fmt.Errorf("billboard: snapshot has invalid dims %dx%d", doc.N, doc.M)
	}
	b := New(doc.N, doc.M)
	for p, row := range doc.Probes {
		if p < 0 || p >= doc.N {
			return nil, fmt.Errorf("billboard: snapshot has probes of player %d of %d", p, doc.N)
		}
		for _, og := range row {
			if og.O < 0 || og.O >= doc.M || og.G > 1 {
				return nil, fmt.Errorf("billboard: snapshot probe (%d,%d,%d) invalid", p, og.O, og.G)
			}
			b.PostProbe(p, og.O, og.G)
		}
	}
	for name, t := range doc.Topics {
		for _, v := range t.Vectors {
			vec, err := bitvec.PartialFromString(v.Bits)
			if err != nil {
				return nil, fmt.Errorf("billboard: snapshot topic %q: %w", name, err)
			}
			b.Post(name, v.Player, vec)
		}
		for _, v := range t.Values {
			b.PostValues(name, v.Player, v.Vals)
		}
	}
	return b, nil
}
